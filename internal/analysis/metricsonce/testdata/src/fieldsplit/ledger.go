// Package fieldsplit is a metricsonce fixture type-checked as
// repro/internal/core: the Loads counter is accounted in ledger.go (two
// sites) and also bumped from manager.go, which splits its accounting
// across files and gets flagged there.
package fieldsplit

// Metrics stands in for the real core.Metrics under the fixture path.
type Metrics struct {
	Loads  int64
	Blocks int64
}

type Ledger struct{ m *Metrics }

func (l *Ledger) load() { l.m.Loads++ }

func (l *Ledger) loadPage() {
	l.m.Loads++
	l.m.Blocks++
}
