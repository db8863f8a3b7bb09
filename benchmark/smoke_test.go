package main

import (
	"testing"
)

// TestSmokeAllWorkloads runs every workload through both passes at the
// smallest size — one set-up, one cycle, short micro passes — so tier-1
// fails if a refactor breaks a call the benchmark makes into a layer, an
// output check, or the contract between the code and BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	measured := map[string]bool{} // per-layer metrics some workload really measures
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{workload: wl.Name, seed: 1, seconds: 0.1, traced: traced, smoke: true, golden: g}
			if traced {
				o.traceOut = t.TempDir() + "/trace.json"
			}
			res, err := runOne(o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (traced %v): attempted %d, failed %d, correct %v: %v",
					wl.Name, traced, res.Attempted, res.Failed, res.Correct, res.Problems)
			}
			for name := range res.Metrics {
				measured[name] = true
			}
			// conform is what rejects a metric the contract does not name,
			// a missing end-to-end metric, or a unit that disagrees.
			if err := conform(res, spec); err != nil {
				t.Errorf("%v", err)
			}
			if !traced {
				for _, sm := range spec.EndToEnd {
					if v := res.Metrics[sm.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", wl.Name, sm.Name, v)
					}
				}
			} else if len(res.Spans) == 0 {
				t.Errorf("%s: the traced pass recorded no spans", wl.Name)
			}
		}
	}
	for _, sm := range spec.PerLayer {
		if !measured[sm.Name] {
			t.Errorf("BENCHMARK.json names per-layer metric %s, but no workload measures it", sm.Name)
		}
	}
}
