package route

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/techmap"
)

// TestFuzzRouteLegality routes randomly generated circuits and verifies
// the structural legality of every result: contiguous orthogonal paths,
// correct endpoints, hop counts that match them, and per-net channel
// occupancy within capacity.
func TestFuzzRouteLegality(t *testing.T) {
	for rep := 0; rep < 10; rep++ {
		t.Run(fmt.Sprintf("rep%d", rep), func(t *testing.T) {
			seed := uint64(500 + rep)
			src := rng.New(seed)
			nl := netlist.Random(src, netlist.RandomConfig{
				Inputs:  src.Intn(10) + 2,
				Outputs: src.Intn(8) + 1,
				Gates:   src.Intn(80) + 10,
				DFFProb: src.Float64() * 0.3,
			})
			m, err := techmap.Map(nl)
			if err != nil {
				t.Fatalf("map: %v", err)
			}
			if m.NumCells() == 0 {
				return
			}
			w, h := place.Shape(m.NumCells())
			p, err := place.Place(m, w, h, place.Options{Seed: seed})
			if err != nil {
				t.Fatalf("place: %v", err)
			}
			r, ng, err := negotiated(p, 12)
			if err != nil {
				// Random dense designs may genuinely exceed capacity; a clean
				// error is acceptable, silent corruption is not.
				t.Logf("unroutable (acceptable): %v", err)
				return
			}
			checkRouting(t, p, r, ng, 12)
			// Timing is well-defined.
			if cp := r.CriticalPath(3, 1); cp < 0 {
				t.Fatal("negative critical path")
			}
		})
	}
}
