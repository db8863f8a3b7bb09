// Package corepkg is a ledgeronly fixture type-checked under the import
// path repro/internal/core itself: metrics mutation is legal only in
// ledger.go and engine.go; manager files must route through Ledger ops.
package corepkg

// Metrics stands in for the real core.Metrics; under the fixture import
// path the analyzer sees it as exactly that type.
type Metrics struct {
	Loads  int64
	Blocks int64
}

// Ledger lives in ledger.go, the file allowed to account.
type Ledger struct{ m *Metrics }

func (l *Ledger) load() { l.m.Loads++ }
