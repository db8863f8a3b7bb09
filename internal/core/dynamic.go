package core

import (
	"repro/internal/hostos"
	"repro/internal/sim"
)

// DynamicLoader implements the paper's §3 dynamic loading: the whole
// device holds one configuration at a time, downloaded when the running
// task needs it. Tasks never block — contention shows up as
// reconfiguration time instead. A configuration shared by several tasks
// (the paper's device-driver case) stays resident across them; sequential
// state is virtualized per task by the state table.
//
// The loader is pure policy: every device touch (download, eviction,
// readback, restore, reset) goes through the engine's residency ledger,
// which charges time and metrics and emits the device-side trace.
type DynamicLoader struct {
	stateTable
	dev *slot // the whole device: one slot at column 0
}

var _ hostos.FPGA = (*DynamicLoader)(nil)

// NewDynamicLoader returns a dynamic-loading manager over the engine,
// renewing used, the board's last one, in place (nil: a new one).
func NewDynamicLoader(k *sim.Kernel, e *Engine, used *DynamicLoader) *DynamicLoader {
	d := used
	if d == nil {
		d = &DynamicLoader{}
	}
	*d = DynamicLoader{stateTable: newStateTable(NewTaskKernel(k, e, "dynamic", &d.TaskKernel), &d.stateTable, 1)}
	d.dev = &d.slots[0]
	return d
}

// Acquire implements hostos.FPGA: dynamic loading never blocks.
func (d *DynamicLoader) Acquire(t *hostos.Task) (sim.Time, bool) {
	return d.swap(d.dev, t, true), true
}

// ExecTime implements hostos.FPGA.
func (d *DynamicLoader) ExecTime(t *hostos.Task) sim.Time { return d.ExecAt(t, 0) }

// Preempt implements hostos.FPGA (§3's preemption analysis).
func (d *DynamicLoader) Preempt(t *hostos.Task, done, total sim.Time) (overhead, preserved sim.Time) {
	return d.preempt(d.dev, t, done, total)
}

// Resume implements hostos.FPGA.
func (d *DynamicLoader) Resume(t *hostos.Task) sim.Time {
	return d.swap(d.dev, t, true)
}
