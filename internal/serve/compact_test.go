package serve

// Idle-cycle defragmentation tests. boardMaint runs on the worker
// goroutine between jobs; these tests call it directly on a hand-built
// stack so the fragmentation layout — and therefore every
// counter — is exact, with one end-to-end run through the HTTP surface
// on top.

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/workload"
)

// fragBoard builds a single-board pool with a resident stack over the
// given builtin scenario's circuit set, and returns the set's compiled
// circuits. No job has run: the engine ledger is empty, so tests lay out
// residency explicitly.
func fragBoard(t *testing.T, manager, scenario string) (*Pool, *board, []*compile.Circuit) {
	t.Helper()
	bc := DefaultBoardConfig()
	bc.Manager = manager
	p, err := NewPool([]BoardConfig{bc}, PoolOptions{Outcomes: NewAdmission(TenantLimits{}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.BuiltinSpec(scenario)
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	circs, err := compileSet(p.cache, bc, set)
	if err != nil {
		t.Fatal(err)
	}
	b := p.boards[0]
	if b.stack, err = buildStack(nil, bc, set, circs); err != nil {
		t.Fatal(err)
	}
	return p, b, circs
}

// fragment loads two strips of circuit c with a hole between them —
// two free spans, ratio > 0 — and returns the strip width.
func fragment(t *testing.T, b *board, c *compile.Circuit) int {
	t.Helper()
	eng := b.stack.Engines[0]
	w := c.BS.W
	eng.Ledger().Load("frag-a", c, 0, false)
	eng.Ledger().Load("frag-b", c, w+3, false)
	return w
}

func TestBoardMaintCompacts(t *testing.T) {
	p, b, circs := fragBoard(t, "amorphous", "multimedia")
	p.compactWatermark, p.compactBudget = 0.05, 0
	w := fragment(t, b, circs[0])

	p.boardMaint(b)
	bi := b.info()
	if bi.Compactions != 1 || bi.CompactionMoved != 1 || bi.CompactionAborts != 0 {
		t.Fatalf("after maint: %+v", bi)
	}
	if bi.Fragmentation != 0 {
		t.Fatalf("fragmentation = %v after a full pack, want 0", bi.Fragmentation)
	}
	if want := b.cfg.Cols - 2*w; bi.LargestFreeCols != want {
		t.Fatalf("largest free = %d, want %d", bi.LargestFreeCols, want)
	}
	// The device is packed: another idle cycle finds nothing to do.
	p.boardMaint(b)
	if bi := b.info(); bi.Compactions != 1 {
		t.Fatalf("idle maint compacted a packed device: %+v", bi)
	}
}

func TestBoardMaintWatermark(t *testing.T) {
	p, b, circs := fragBoard(t, "amorphous", "multimedia")
	fragment(t, b, circs[0])

	// Watermark disabled: maint samples the gauges but never compacts.
	p.compactWatermark = 0
	p.boardMaint(b)
	bi := b.info()
	if bi.Compactions != 0 {
		t.Fatalf("disabled compaction ran: %+v", bi)
	}
	if bi.Fragmentation <= 0 || bi.LargestFreeCols <= 0 {
		t.Fatalf("fragmentation not sampled: %+v", bi)
	}
	// A watermark above the current ratio leaves the layout alone too.
	p.compactWatermark = 0.99
	p.boardMaint(b)
	if bi := b.info(); bi.Compactions != 0 {
		t.Fatalf("under-watermark compaction ran: %+v", bi)
	}
}

func TestBoardMaintAbortRetries(t *testing.T) {
	p, b, circs := fragBoard(t, "amorphous", "telecom")
	p.compactWatermark = 0.05
	// Readback faults only fire on stateful strips: pick a sequential
	// circuit from the set. The fault aborts the pass before the strip
	// is touched; the layout survives and the next idle cycle retries.
	seq := -1
	for i, c := range circs {
		if c.Sequential {
			seq = i
			break
		}
	}
	if seq < 0 {
		t.Fatal("telecom set has no sequential circuit")
	}
	fragment(t, b, circs[seq])
	plan, err := fault.ParseSpec("seed=3,retries=0,readback-flip@1")
	if err != nil {
		t.Fatal(err)
	}
	b.stack.Engines[0].Ledger().InjectFaults(fault.NewInjector(plan))

	p.boardMaint(b)
	bi := b.info()
	if bi.Compactions != 1 || bi.CompactionAborts != 1 || bi.CompactionMoved != 0 {
		t.Fatalf("after faulted maint: %+v", bi)
	}
	if q := b.isQuarantined(); q {
		t.Fatal("compaction abort quarantined the board")
	}
	if bi.Fragmentation <= 0 {
		t.Fatalf("aborted pass should leave the hole: %+v", bi)
	}

	p.boardMaint(b)
	bi = b.info()
	if bi.Compactions != 2 || bi.CompactionMoved != 1 || bi.CompactionAborts != 1 {
		t.Fatalf("after retry maint: %+v", bi)
	}
	if bi.Fragmentation != 0 {
		t.Fatalf("retry did not pack: %+v", bi)
	}
}

func TestBoardMaintSkipsQuarantined(t *testing.T) {
	p, b, circs := fragBoard(t, "amorphous", "multimedia")
	p.compactWatermark = 0.05
	fragment(t, b, circs[0])
	b.quarantine("config-error")

	p.boardMaint(b)
	if bi := b.info(); bi.Compactions != 0 || bi.Fragmentation != 0 {
		t.Fatalf("quarantined board maintained: %+v", bi)
	}
}

// TestCompactionEndToEnd drives an amorphous board through the HTTP
// surface with a low watermark: the job leaves cached strips behind, the
// idle cycle defragments, and the result shows up on /v1/boards. The
// next job must still be a byte-identical warm reset — compaction
// between jobs never leaks into results.
func TestCompactionEndToEnd(t *testing.T) {
	bc := DefaultBoardConfig()
	bc.Manager = "amorphous"
	s := newTestServer(t, Config{
		Boards:           []BoardConfig{bc},
		CompactWatermark: 0.01,
	})
	s.Start()
	defer s.Drain()

	j1 := submitOK(t, s, "alpha", "multimedia")
	waitDone(t, j1)
	j2 := submitOK(t, s, "alpha", "multimedia")
	waitDone(t, j2)

	st1, st2 := j1.Status(), j2.Status()
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("jobs: %+v / %+v", st1, st2)
	}
	if !st1.Result.LintClean || !st2.Result.LintClean {
		t.Fatalf("lint diags: %v / %v", st1.Result.LintDiags, st2.Result.LintDiags)
	}
	if st1.Result.Makespan != st2.Result.Makespan {
		t.Fatalf("warm job diverged: makespan %v vs %v", st1.Result.Makespan, st2.Result.Makespan)
	}
	s.Drain()
	bi := s.pool.boards[0].info()
	if bi.WarmResets != 1 {
		t.Fatalf("second job did not warm-reset: %+v", bi)
	}
	if bi.LargestFreeCols <= 0 {
		t.Fatalf("fragmentation gauges never sampled: %+v", bi)
	}
}
