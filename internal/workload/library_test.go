package workload

import (
	"sync"
	"testing"
)

// Two Builds of one spec hand out the very same netlists: the circuits
// come from the shared library, not from a generator run per job. The
// concurrent half runs first and is in the `make race` set: eight
// goroutines build every builtin spec at once and must agree on one
// instance of each circuit, whichever of them built it first.
func TestBuildSharesLibrary(t *testing.T) {
	const workers = 8
	sets := make([][]*Set, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, spec := range BuiltinSpecs() {
				set, err := spec.Build()
				if err != nil {
					t.Error(err)
					return
				}
				sets[w] = append(sets[w], set)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(sets[w]) != len(sets[0]) {
			t.Fatalf("worker %d built %d sets, worker 0 built %d", w, len(sets[w]), len(sets[0]))
		}
		for s := range sets[0] {
			for i, c := range sets[0][s].Circuits {
				if sets[w][s].Circuits[i] != c {
					t.Errorf("worker %d: circuit %s differs from worker 0's instance", w, c.Name)
				}
			}
		}
	}

	for _, spec := range BuiltinSpecs() {
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Circuits) != len(b.Circuits) {
			t.Fatalf("%s: %d vs %d circuits", spec.Scenario, len(a.Circuits), len(b.Circuits))
		}
		for i := range a.Circuits {
			if a.Circuits[i] != b.Circuits[i] {
				t.Errorf("%s: circuit %d (%s) built twice", spec.Scenario, i, a.Circuits[i].Name)
			}
		}
	}
}

// Validate knows a pool name without building the circuit, and rejects
// an unknown one with the same error Build gives.
func TestValidateChecksPoolNames(t *testing.T) {
	syn := DefaultSynthetic()
	syn.Pool = []string{"alu8", "nosuch"}
	spec := Spec{Scenario: "synthetic", Synthetic: &syn}
	verr := spec.Validate()
	_, berr := spec.Build()
	if verr == nil || berr == nil || verr.Error() != berr.Error() {
		t.Fatalf("Validate: %v, Build: %v; want the same unknown-circuit error", verr, berr)
	}
}
