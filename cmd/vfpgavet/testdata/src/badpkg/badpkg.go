// Package badpkg trips every vfpgavet analyzer exactly once (but for
// layering: a package under cmd/, the top layer, cannot); the CLI test
// drives the binary over it and asserts exit status and diagnostics.
//
//vfpgavet:deterministic
package badpkg

import (
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

func bump(met *core.Metrics) {
	met.Loads++ // ledgeronly: metrics mutated outside internal/core
}

func now() int64 {
	return time.Now().UnixNano() // simclock: wall clock in a deterministic package
}

func matches(err error) bool {
	return strings.Contains(err.Error(), "boom") // typederr: string matching on an error
}

type metricsWriter struct{}

func (m *metricsWriter) family(name, help, typ string) {}

func (m *metricsWriter) int(name string, v int64, kv ...string) {}

func expose(m *metricsWriter) {
	m.int("vfpgad_orphan_total", 1) // metricsonce: series without a family
}

func leak(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) // mapiter: iteration order leaks, no sort
	}
	return ks
}

type store struct {
	mu sync.Mutex
	n  int
}

func (s *store) peek() int {
	return s.n // lockproto: guarded field read without the lock
}

// Helper is exported and nothing outside tests calls it.
func Helper() int { return 1 } // testonly: no product reference
