package core

import (
	"testing"

	"repro/internal/hostos"
	"repro/internal/sim"
)

func multiHarness(t testing.TB, boards int, opt Options, osCfg hostos.Config, cfg PartitionConfig) (*harness, *MultiManager) {
	t.Helper()
	k := sim.New()
	var engines []*Engine
	for i := 0; i < boards; i++ {
		engines = append(engines, newEngine(t, opt))
	}
	mm, err := NewMultiManager(k, engines, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	os := hostos.New(k, osCfg, mm, nil)
	return &harness{K: k, E: engines[0], OS: os}, mm
}

func TestMultiSpreadsTasksAcrossBoards(t *testing.T) {
	opt := testOptions()
	opt.Geometry.Cols = 8 // each board is small
	h, mm := multiHarness(t, 2, opt, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions, Fit: BestFit})
	// Two tasks whose circuits each need several columns: with one 8-col
	// board one would block; with two boards both proceed.
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("mul4", 50_000), hostos.Compute(2 * sim.Millisecond)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{hostos.Compute(100 * sim.Microsecond), fpgaOp("mul4", 50_000)})
	h.K.Run()
	if a.State() != hostos.TaskDone || b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if mm.TotalBlocks() != 0 {
		t.Fatalf("blocks = %d with two boards", mm.TotalBlocks())
	}
	used := 0
	for _, board := range mm.Boards {
		if board.E.Dev.ConfigWrites() > 0 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("used %d boards, want 2", used)
	}
}

func TestMultiSingleBoardBlocks(t *testing.T) {
	opt := testOptions()
	opt.Geometry.Cols = 5 // one mul4 strip fills the board
	h, mm := multiHarness(t, 1, opt, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions, Fit: BestFit})
	h.OS.Spawn("a", 0, []hostos.Op{fpgaOp("mul4", 100_000), hostos.Compute(2 * sim.Millisecond)})
	b, _ := h.OS.Spawn("b", 0, []hostos.Op{hostos.Compute(100 * sim.Microsecond), fpgaOp("mul4", 100)})
	h.K.Run()
	if b.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	if mm.TotalBlocks() == 0 {
		t.Fatal("single small board should have blocked")
	}
}

func TestMultiTaskStaysOnItsBoard(t *testing.T) {
	opt := testOptions()
	h, mm := multiHarness(t, 3, opt, hostos.Config{Policy: hostos.FIFO},
		PartitionConfig{Mode: VariablePartitions})
	a, _ := h.OS.Spawn("a", 0, []hostos.Op{
		seqOp("counter8", 10_000), hostos.Compute(sim.Millisecond), seqOp("counter8", 10_000),
	})
	h.K.Run()
	if a.State() != hostos.TaskDone {
		t.Fatal("not done")
	}
	// One load total: the second op reuses the same board's partition.
	if mm.TotalLoads() != 1 {
		t.Fatalf("loads = %d, want 1 (sticky board)", mm.TotalLoads())
	}
}

func TestMultiRegisterRejectsUnfittable(t *testing.T) {
	opt := testOptions()
	opt.Geometry.Cols = 2
	h, _ := multiHarness(t, 2, opt, hostos.Config{Policy: hostos.FIFO},
		PartitionConfig{Mode: VariablePartitions})
	if _, err := h.OS.Spawn("big", 0, []hostos.Op{fpgaOp("mul4", 10)}); err == nil {
		t.Fatal("circuit too wide for every board accepted")
	}
}

func TestMultiNeedsBoards(t *testing.T) {
	if _, err := NewMultiManager(sim.New(), nil, PartitionConfig{Mode: VariablePartitions}, nil); err == nil {
		t.Fatal("zero boards accepted")
	}
}

func TestMultiSequentialStatePreserved(t *testing.T) {
	opt := testOptions()
	h, _ := multiHarness(t, 2, opt, hostos.Config{Policy: hostos.RR, TimeSlice: sim.Millisecond},
		PartitionConfig{Mode: VariablePartitions})
	hw, _ := h.OS.Spawn("hw", 0, []hostos.Op{seqOp("counter8", 400_000)})
	h.OS.Spawn("cpu", 0, []hostos.Op{hostos.Compute(4 * sim.Millisecond)})
	h.K.Run()
	want := sim.Time(400_000) * h.E.Lib["counter8"].ClockPeriod
	if hw.HWTime != want {
		t.Fatalf("HW time %v, want %v", hw.HWTime, want)
	}
	if hw.Preemptions == 0 {
		t.Fatal("expected preemptions")
	}
}
