package serve

import "testing"

// TestBoardFragmentationView pins the board's exported fragmentation
// view — the pair fleet placement routes on. A board that never ran
// reports full capacity; after a job it reports what that job left on
// the device (the ledger's Frag(): worst-engine ratio, merged largest
// hole), although the next job starts on an erased device; and a board
// whose stack was discarded (a failed job, a quarantine) keeps its last
// sample. Between jobs nothing touches the device: consecutive jobs have
// equal makespans and the second runs on recycled hardware.
func TestBoardFragmentationView(t *testing.T) {
	bc := DefaultBoardConfig()
	bc.Manager = "amorphous"
	s := newTestServer(t, Config{Boards: []BoardConfig{bc}})
	b := s.pool.boards[0]
	if bi := b.info(); bi.LargestFreeCols != bc.Cols || bi.Fragmentation != 0 {
		t.Fatalf("never-run board: %+v, want largest free %d and ratio 0", bi, bc.Cols)
	}

	s.Start()
	j1 := submitOK(t, s, "alpha", "multimedia")
	waitDone(t, j1)
	j2 := submitOK(t, s, "alpha", "multimedia")
	waitDone(t, j2)
	s.Drain() // the worker samples after it finishes a job; wait for it

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
	bi := b.info()
	if bi.WarmResets != 1 || bi.ColdResets != 1 {
		t.Fatalf("second job did not warm-reset: %+v", bi)
	}
	if len(b.stack.Engines) != 1 {
		t.Fatalf("amorphous board has %d engines, want 1", len(b.stack.Engines))
	}
	want := b.stack.Engines[0].Ledger().Frag()
	if bi.Fragmentation != want.Ratio() || bi.LargestFreeCols != want.LargestFree || bi.Frag != want {
		t.Fatalf("board view %+v, want the last job's ledger %+v (ratio %v)", bi, want, want.Ratio())
	}
	if bi.LargestFreeCols >= bc.Cols {
		t.Fatalf("amorphous job left no residue: %+v", bi)
	}

	b.stack = nil
	b.quarantine("config-error")
	b.sampleFrag()
	if after := b.info(); after.Fragmentation != bi.Fragmentation || after.LargestFreeCols != bi.LargestFreeCols || after.Frag != bi.Frag {
		t.Fatalf("discarded stack resampled: %+v, want the last sample %+v", after, bi)
	}
}
