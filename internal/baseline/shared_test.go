package baseline

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/netlist"
	"repro/internal/workload"
)

// managerNames are the nine managers NewManager builds by name.
var managerNames = []string{"dynamic", "partition", "amorphous", "overlay", "paged", "multi", "exclusive", "software", "merged"}

// TestSharedRequestsStayReadOnly holds every manager to the read-only
// contract of a built set, which now covers requests: the hardware ops
// of a set point into one table of requests, and a SetCache hands one
// set to many boards at once. Each builtin spec's cached set and a paged
// reference string run twice under each of the nine managers, both runs
// at once; afterwards every op, its request and the request's pages
// included, must equal a fresh build's.
func TestSharedRequestsStayReadOnly(t *testing.T) {
	opt := core.DefaultOptions()
	var cache workload.SetCache
	type shared struct {
		name  string
		set   *workload.Set
		fresh func() *workload.Set
	}
	var sets []shared
	for _, spec := range workload.BuiltinSpecs() {
		set, err := cache.Build(&spec)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, shared{spec.Scenario, set, func() *workload.Set {
			fresh, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			return fresh
		}})
	}
	mul4 := netlist.MustLookup("mul4")
	probe, err := core.CompileSet(nil, opt, []*netlist.Netlist{mul4})
	if err != nil {
		t.Fatal(err)
	}
	paged := func() *workload.Set {
		return workload.Paged(workload.PagedConfig{
			Circuit: mul4, Refs: 40, Pages: (probe[0].Cells() + 15) / 16, // NewManager's 16-CLB pages
			WorkSet: 3, Skew: 1.2, Evals: 5_000, Seed: 7,
		})
	}
	sets = append(sets, shared{"paged", paged(), paged})

	for _, s := range sets {
		circs, err := core.CompileSet(nil, opt, s.set.Circuits)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2*len(managerNames))
		for _, name := range managerNames {
			engines := 1
			if name == "multi" {
				engines = 2
			}
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := NewStack(opt, engines, hostos.DefaultConfig(), nil, s.set, circs,
						NewManager(name, s.set.CircuitNames()), nil)
					if err == nil {
						err = st.Run(s.set)
					}
					if err != nil {
						errs <- err
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", s.name, err)
		}
		fresh := s.fresh()
		for i, ts := range s.set.Tasks {
			for k, op := range ts.Program {
				want := fresh.Tasks[i].Program[k]
				if op.Kind != want.Kind || op.D != want.D || !reflect.DeepEqual(op.Req, want.Req) {
					t.Fatalf("%s %s op %d changed under the managers: %+v %+v, want %+v %+v",
						s.name, ts.Name, k, op, op.Req, want, want.Req)
				}
			}
		}
	}
}
