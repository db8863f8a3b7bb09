package layering_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/layering"
)

// The import path a fixture is checked under is what ranks it. The
// upward fixture poses as internal/serve and imports fleet and loadgen
// (the edge this analyzer was written to keep out); the peer fixture
// poses as internal/bench and imports loadgen, of its own layer; the
// clean fixture poses as internal/fleet and imports only downward.
func TestLayering(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/src/upward", "repro/internal/serve")
	analysistest.Run(t, layering.Analyzer, "testdata/src/peer", "repro/internal/bench")
	analysistest.Run(t, layering.Analyzer, "testdata/src/clean", "repro/internal/fleet")
}

// A package under internal/ that the table does not list is reported, so
// a new package cannot sit outside the gate.
func TestLayeringUnrankedPackage(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/src/unranked", "repro/internal/newlayer")
}
