package core

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRandomizedStress drives every manager with randomized workloads and
// checks the global invariants: every task completes (no deadlock, no
// lost wakeup), hardware time is never lost under save/restore, variable
// partitions merge back to one free strip, and all pins return to the
// pool.
func TestRandomizedStress(t *testing.T) {
	type mkMgr struct {
		name string
		mk   func(k *sim.Kernel, e *Engine) hostos.FPGA
	}
	managers := []mkMgr{
		{"dynamic", func(k *sim.Kernel, e *Engine) hostos.FPGA { return NewDynamicLoader(k, e, nil) }},
		{"partition-var-gc-rotate", func(k *sim.Kernel, e *Engine) hostos.FPGA {
			pm, err := NewPartitionManager(k, e, PartitionConfig{Mode: VariablePartitions, Fit: BestFit, GC: true, Rotate: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}},
		{"partition-var-plain", func(k *sim.Kernel, e *Engine) hostos.FPGA {
			pm, err := NewPartitionManager(k, e, PartitionConfig{Mode: VariablePartitions}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}},
		{"partition-fixed", func(k *sim.Kernel, e *Engine) hostos.FPGA {
			pm, err := NewPartitionManager(k, e, PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{8, 8, 8}, Rotate: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}},
		{"overlay", func(k *sim.Kernel, e *Engine) hostos.FPGA {
			om, _, err := NewOverlayManager(k, e, circuitsOf(e, []string{"adder8"}), nil)
			if err != nil {
				t.Fatal(err)
			}
			return om
		}},
		{"paged", func(k *sim.Kernel, e *Engine) hostos.FPGA {
			pl, err := NewPagedLoader(k, e, PagedConfig{PageCells: 8, Frames: 12, Policy: LRU}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}},
	}
	policies := []hostos.Policy{hostos.FIFO, hostos.RR, hostos.Priority}
	states := []StatePolicy{SaveRestore, Rollback, NonPreemptable}

	for rep := 0; rep < 4; rep++ {
		src := rng.New(uint64(9000 + rep))
		for _, m := range managers {
			m := m
			seed := src.Uint64()
			name := fmt.Sprintf("%s_rep%d", m.name, rep)
			t.Run(name, func(t *testing.T) {
				wsrc := rng.New(seed)
				opt := testOptions()
				opt.State = states[wsrc.Intn(len(states))]
				osCfg := hostos.Config{
					Policy:    policies[wsrc.Intn(len(policies))],
					TimeSlice: sim.Time(wsrc.Intn(5)+1) * sim.Millisecond,
					CtxSwitch: 20 * sim.Microsecond,
					Syscall:   5 * sim.Microsecond,
				}
				set := workload.Synthetic(workload.SyntheticConfig{
					Tasks:        wsrc.Intn(8) + 3,
					OpsPerTask:   wsrc.Intn(5) + 2,
					EvalsPerOp:   int64(wsrc.Intn(60_000) + 5_000),
					ComputeTime:  sim.Time(wsrc.Intn(900)+100) * sim.Microsecond,
					MeanInterval: sim.Time(wsrc.Intn(3)) * sim.Millisecond,
					SwitchProb:   wsrc.Float64() * 0.6,
					Seed:         seed ^ 0xdead,
				})
				h := newHarness(t, opt, osCfg, m.mk)
				for _, nl := range set.Circuits {
					if err := h.E.AddCircuit(nl); err != nil {
						t.Fatal(err)
					}
				}
				set.Spawn(h.OS)
				// Bound the run: if the queue drains or time explodes,
				// something livelocked.
				h.K.RunUntil(200 * sim.Second)
				if !h.OS.AllDone() {
					states := map[hostos.TaskState]int{}
					for _, task := range h.OS.Tasks() {
						states[task.State()]++
					}
					t.Fatalf("not all tasks done after 200s virtual: %v", states)
				}
				// Pins must all return after every task exits... except
				// those still held by resident content (overlay residents,
				// loaded-but-idle dynamic circuit, partitions held until
				// exit release them on Remove).
				free := h.E.FreePinCount()
				total := opt.Geometry.NumPins()
				if free > total {
					t.Fatalf("pin pool overflow: %d > %d", free, total)
				}
				// Device occupancy must not exceed capacity at any point.
				if h.E.M.Util.Max() > float64(opt.Geometry.NumCLBs()) {
					t.Fatalf("utilization exceeded device capacity: %v", h.E.M.Util.Max())
				}
			})
		}
	}
}

// TestStressPartitionsMergeBack checks that after randomized churn the
// variable allocator returns to a single free strip covering the device.
func TestStressPartitionsMergeBack(t *testing.T) {
	for rep := 0; rep < 6; rep++ {
		seed := uint64(4000 + rep)
		opt := testOptions()
		var pm *PartitionManager
		h := newHarness(t, opt, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
			func(k *sim.Kernel, e *Engine) hostos.FPGA {
				var err error
				pm, err = NewPartitionManager(k, e, PartitionConfig{Mode: VariablePartitions, Fit: BestFit, GC: rep%2 == 0, Rotate: rep%3 == 0}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return pm
			})
		set := workload.Synthetic(workload.SyntheticConfig{
			Tasks:        10,
			OpsPerTask:   3,
			EvalsPerOp:   20_000,
			ComputeTime:  200 * sim.Microsecond,
			MeanInterval: sim.Millisecond,
			SwitchProb:   0.4,
			Seed:         seed,
		})
		for _, nl := range set.Circuits {
			if err := h.E.AddCircuit(nl); err != nil {
				t.Fatal(err)
			}
		}
		set.Spawn(h.OS)
		h.K.RunUntil(200 * sim.Second)
		if !h.OS.AllDone() {
			t.Fatalf("rep %d: tasks unfinished", rep)
		}
		parts := pm.Regions()
		if len(parts) != 1 || !parts[0].Free || parts[0].W != opt.Geometry.Cols {
			t.Fatalf("rep %d: partitions did not merge back: %+v", rep, parts)
		}
		// The manager's check must agree: disjoint strips, no leaked
		// columns, free space merged, device configuration consistent.
		if err := pm.Check(); err != nil {
			t.Fatalf("rep %d: partition invariants violated: %v", rep, err)
		}
		if free := h.E.FreePinCount(); free != opt.Geometry.NumPins() {
			t.Fatalf("rep %d: %d pins free, want %d", rep, free, opt.Geometry.NumPins())
		}
	}
}
