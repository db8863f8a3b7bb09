// Package baseline implements the comparison points the paper argues
// against (or names as limiting cases):
//
//   - Exclusive — §4's "more drastic solution": the FPGA is a
//     non-preemptable resource held by one task until it completes, with
//     everyone else suspended ("implicitly forcing the scheduling to a
//     strictly FIFO policy");
//   - Merged — §3's "trivial solution": if the FPGA is large enough,
//     merge all circuits into one configuration and never reconfigure;
//   - Software — run the algorithm on the host processor instead, at the
//     slowdown the paper's motivation assumes FPGAs exist to avoid.
//
// All three implement hostos.FPGA, so experiments swap them for the VFPGA
// managers without touching the workload. The device-backed baselines go
// through the same residency ledger as the managers, so their costs and
// metrics are charged identically and their runs are traceable.
package baseline

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// Exclusive models the non-preemptable FPGA: the first task to use it
// holds it until exit; reconfiguration happens only between holders.
type Exclusive struct {
	core.TaskKernel
	holder *hostos.Task
}

var _ hostos.FPGA = (*Exclusive)(nil)

// NewExclusive returns an exclusive-FPGA baseline over the engine,
// renewing used, the board's last one, in place (nil: a new one).
func NewExclusive(k *sim.Kernel, e *core.Engine, used *Exclusive) *Exclusive {
	x := used
	if x == nil {
		x = &Exclusive{}
	}
	*x = Exclusive{TaskKernel: core.NewTaskKernel(k, e, "exclusive", &x.TaskKernel)}
	return x
}

// Acquire implements hostos.FPGA: the device is granted whole, FIFO.
func (x *Exclusive) Acquire(t *hostos.Task) (sim.Time, bool) {
	led := x.E.Ledger()
	if x.holder != nil && x.holder != t {
		x.Block(t)
		return 0, false
	}
	x.holder = t
	c := x.CircuitOf(t)
	if r := led.ResidentAt(0); r != nil {
		if r.Circuit == c.Name {
			return 0, true
		}
		led.Evict(0)
	}
	// Without partial reconfiguration the whole device is rewritten.
	_, cost := led.Load(t.Name, c, 0, true)
	return cost, true
}

// ExecTime implements hostos.FPGA.
func (x *Exclusive) ExecTime(t *hostos.Task) sim.Time { return x.ExecAt(t, 0) }

// Preemptable implements hostos.FPGA: never (the defining property).
func (x *Exclusive) Preemptable(t *hostos.Task) bool { return false }

// Preempt implements hostos.FPGA; unreachable given Preemptable.
func (x *Exclusive) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	panic("baseline: exclusive FPGA cannot be preempted")
}

// Resume implements hostos.FPGA; in-flight ops are never interrupted, so
// resuming costs nothing (the op state is intact).
func (x *Exclusive) Resume(t *hostos.Task) sim.Time { return 0 }

// Complete implements hostos.FPGA: the resource stays with the holder.
func (x *Exclusive) Complete(t *hostos.Task) {}

// Remove implements hostos.FPGA: the holder's exit releases the device.
// The configuration stays resident (the next holder may want it).
func (x *Exclusive) Remove(t *hostos.Task) {
	if x.holder != t {
		return
	}
	x.holder = nil
	x.Wake()
}

// Merged models the all-circuits-in-one configuration: every registered
// circuit is loaded side by side at initialization and never moves. It
// fails construction when the device is too small — which is exactly the
// regime the VFPGA exists for.
type Merged struct {
	core.TaskKernel
	slots map[string]int // circuit -> strip origin column
}

var _ hostos.FPGA = (*Merged)(nil)

// NewMerged loads the circuits, compiled for e, side by side in the
// given order. It returns the initialization cost (one big download) or
// an error if the circuits do not all fit. It renews used, the board's
// last merged baseline, in place (nil: a new one).
func NewMerged(k *sim.Kernel, e *core.Engine, order []*compile.Circuit, used *Merged) (*Merged, sim.Time, error) {
	m := used
	if m == nil {
		m = &Merged{slots: map[string]int{}}
	}
	clear(m.slots)
	*m = Merged{TaskKernel: core.NewTaskKernel(k, e, "merged", &m.TaskKernel), slots: m.slots}
	led := e.Ledger()
	x := 0
	var cost sim.Time
	for _, c := range order {
		if x+c.BS.W > e.Opt.Geometry.Cols {
			return nil, 0, fmt.Errorf("baseline: merged circuits need more than %d columns (%s does not fit at %d)",
				e.Opt.Geometry.Cols, c.Name, x)
		}
		_, loadCost, err := led.TryLoad("", c, x, false)
		if err != nil {
			return nil, 0, err
		}
		m.slots[c.Name] = x
		cost += loadCost
		x += c.BS.W
	}
	return m, cost, nil
}

// Register implements hostos.FPGA.
func (m *Merged) Register(t *hostos.Task, circuit string) error {
	if _, ok := m.slots[circuit]; !ok {
		return fmt.Errorf("baseline: circuit %q not merged at init", circuit)
	}
	return nil
}

// Acquire implements hostos.FPGA: everything is always loaded.
func (m *Merged) Acquire(t *hostos.Task) (sim.Time, bool) { return 0, true }

// ExecTime implements hostos.FPGA.
func (m *Merged) ExecTime(t *hostos.Task) sim.Time {
	return m.ExecAt(t, m.slots[t.CurrentRequest().Circuit])
}

// Preemptable implements hostos.FPGA: circuits never move, so preemption
// is free (TaskKernel.Preempt).
func (m *Merged) Preemptable(t *hostos.Task) bool { return true }

// Resume implements hostos.FPGA.
func (m *Merged) Resume(t *hostos.Task) sim.Time { return 0 }

// Complete implements hostos.FPGA.
func (m *Merged) Complete(t *hostos.Task) {}

// Remove implements hostos.FPGA.
func (m *Merged) Remove(t *hostos.Task) {}

// Software runs every "FPGA" operation on the host CPU at a slowdown
// factor — the no-FPGA null hypothesis of the paper's motivation. Its
// lint view is an empty device: nothing is ever configured, but the
// verifier wiring stays uniform.
type Software struct {
	core.TaskKernel
	// Slowdown multiplies the hardware execution time (the paper's
	// motivation: general-purpose processors "cannot satisfy performance
	// requirements"). Typical datapaths gain 10-100x on FPGAs.
	Slowdown int64
}

var _ hostos.FPGA = (*Software)(nil)

// NewSoftware returns a software-execution baseline, renewing used, the
// board's last one, in place (nil: a new one).
func NewSoftware(e *core.Engine, slowdown int64, used *Software) *Software {
	if slowdown <= 0 {
		slowdown = 20
	}
	s := used
	if s == nil {
		s = &Software{}
	}
	*s = Software{TaskKernel: core.NewTaskKernel(nil, e, "software", &s.TaskKernel), Slowdown: slowdown}
	return s
}

// Acquire implements hostos.FPGA: there is nothing to load.
func (s *Software) Acquire(t *hostos.Task) (sim.Time, bool) { return 0, true }

// ExecTime implements hostos.FPGA. It is not TaskKernel.ExecAt: the
// operation runs on the host CPU, not on the fabric, so there is no pin
// multiplexing to stretch it and no completion detection to poll.
func (s *Software) ExecTime(t *hostos.Task) sim.Time {
	req := t.CurrentRequest()
	return sim.Time(req.Evaluations+req.Cycles) * s.CircuitOf(t).ClockPeriod * sim.Time(s.Slowdown)
}

// Preemptable implements hostos.FPGA: software state lives in memory.
func (s *Software) Preemptable(t *hostos.Task) bool { return true }

// Preempt implements hostos.FPGA: no work is lost.
func (s *Software) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	return 0, done
}

// Resume implements hostos.FPGA.
func (s *Software) Resume(t *hostos.Task) sim.Time { return 0 }

// Complete implements hostos.FPGA.
func (s *Software) Complete(t *hostos.Task) {}

// Remove implements hostos.FPGA.
func (s *Software) Remove(t *hostos.Task) {}
