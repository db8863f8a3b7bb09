package core

import (
	"slices"
	"testing"

	"repro/internal/hostos"
	"repro/internal/sim"
)

// The §3 state plane — observability (Readback) and controllability
// (Restore, Reset) of a circuit's flip-flops — checked against the device
// itself, not against the ledger's accounting: each test first drives the
// flip-flops to the complement of their init values, so a path that
// skipped the device, or read it as zeros, shows.

// flippedState loads counter8 at column 0 and overwrites its flip-flops
// with the complement of their init values; it returns both vectors.
func flippedState(t *testing.T) (e *Engine, led *Ledger, init, flipped []bool) {
	t.Helper()
	e, led, _ = ledgerFixture(t)
	c := e.Lib["counter8"]
	led.Load("a", c, 0, false)
	region := c.BS.Region(0, 0)
	for x := region.X; x < region.X+region.W; x++ {
		for y := region.Y; y < region.Y+region.H; y++ {
			if cfg := e.Dev.CLB(x, y); cfg.Used && cfg.UseFF {
				init = append(init, cfg.FFInit)
			}
		}
	}
	if len(init) == 0 {
		t.Fatal("counter8 has no flip-flops")
	}
	flipped = make([]bool, len(init))
	for i, v := range init {
		flipped[i] = !v
	}
	e.Dev.WriteRegionState(region, flipped)
	return e, led, init, flipped
}

func TestLedgerReadbackReadsTheDevice(t *testing.T) {
	e, led, _, flipped := flippedState(t)
	c := e.Lib["counter8"]
	got, _ := led.Readback("a", c, c.BS.Region(0, 0))
	if !slices.Equal(got, flipped) {
		t.Fatalf("readback = %v, device holds %v", got, flipped)
	}
}

func TestLedgerRestoreWritesTheDevice(t *testing.T) {
	e, led, init, _ := flippedState(t)
	c := e.Lib["counter8"]
	region := c.BS.Region(0, 0)
	led.Restore("a", c, region, init)
	if got := e.Dev.ReadRegionState(region); !slices.Equal(got, init) {
		t.Fatalf("device after restore = %v, restored %v", got, init)
	}
}

func TestLedgerResetWritesFFInit(t *testing.T) {
	e, led, init, _ := flippedState(t)
	c := e.Lib["counter8"]
	region := c.BS.Region(0, 0)
	led.Reset("a", c, region)
	if got := e.Dev.ReadRegionState(region); !slices.Equal(got, init) {
		t.Fatalf("device after reset = %v, FFInit values %v", got, init)
	}
}

// TestRemoveForgetsSavedState: a task whose state was read back into a
// manager's table, then exits, leaves nothing saved behind — in the
// state table under the time-sharing managers and in the strip table
// under the strip managers.
func TestRemoveForgetsSavedState(t *testing.T) {
	t.Run("stateTable", func(t *testing.T) {
		k := sim.New()
		e := newEngine(t, testOptions())
		d := NewDynamicLoader(k, e, nil)
		os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, d, nil)
		a := spawnMid(t, os, "a", "counter8")
		b := spawnMid(t, os, "b", "counter8")
		d.Acquire(a)
		d.Acquire(b) // a's state is read back into the table
		if !d.saved.has(a.ID) {
			t.Fatal("a's state was not saved; the test would prove nothing")
		}
		d.Remove(a)
		if d.saved.has(a.ID) {
			t.Fatal("Remove kept the exiting task's saved state")
		}
	})
	t.Run("stripTable", func(t *testing.T) {
		k := sim.New()
		e := newEngine(t, testOptions())
		pm, err := NewPartitionManager(k, e, PartitionConfig{Mode: FixedPartitions, FixedWidths: []int{4}, Rotate: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		os := hostos.New(k, hostos.Config{Policy: hostos.FIFO}, pm, nil)
		a := spawnMid(t, os, "a", "counter8")
		b := spawnMid(t, os, "b", "counter8")
		pm.Acquire(a)
		pm.Complete(a)
		if _, ready := pm.Acquire(b); !ready { // rotates a out, saving its state
			t.Fatal("b could not rotate a out")
		}
		if !pm.saved.has(a.ID) {
			t.Fatal("a's state was not saved; the test would prove nothing")
		}
		pm.Remove(a)
		if pm.saved.has(a.ID) {
			t.Fatal("Remove kept the exiting task's saved state")
		}
	})
}
