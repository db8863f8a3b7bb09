package core

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// OverlayManager implements the paper's §2 overlaying: "part of the FPGA
// [computes] common functions which are frequently used, while the
// remaining part is used to download specific functions which are
// typically rarely used or mutually exclusive".
//
// Resident circuits are loaded once at startup into the left of the
// device and stay pinned; everything else shares a single overlay area on
// the right, holding one configuration at a time (the functions are
// mutually exclusive, as in classic code overlays). Sequential state is
// virtualized per task by the state table, exactly as in dynamic loading.
// All device touches go through the engine's residency ledger.
type OverlayManager struct {
	stateTable

	residents map[string]*slot
	overlay   *slot
	overlayW  int
}

var _ hostos.FPGA = (*OverlayManager)(nil)

// NewOverlayManager loads the named resident circuits and reserves the
// remaining columns as the overlay area. Resident load time is charged to
// system initialization, not to any task (the paper's device-driver
// downloading "performed once for all tasks").
func NewOverlayManager(k *sim.Kernel, e *Engine, resident []string) (*OverlayManager, sim.Time, error) {
	om := &OverlayManager{
		stateTable: newStateTable(NewTaskKernel(k, e, "overlay")),
		residents:  map[string]*slot{},
	}
	x := 0
	var initCost sim.Time
	for _, name := range resident {
		c, err := e.Circuit(name)
		if err != nil {
			return nil, 0, err
		}
		if x+c.BS.W > e.Opt.Geometry.Cols {
			return nil, 0, fmt.Errorf("core: resident circuits exceed the device (%d+%d > %d cols)",
				x, c.BS.W, e.Opt.Geometry.Cols)
		}
		s := om.addSlot(x)
		cost, err := om.loadSlot(s, "", c)
		if err != nil {
			return nil, 0, err
		}
		initCost += cost
		om.residents[name] = s
		x += c.BS.W
	}
	om.overlay = om.addSlot(x)
	om.overlayW = e.Opt.Geometry.Cols - x
	return om, initCost, nil
}

// loadSlot downloads c at the slot's origin on behalf of owner ("" for
// system initialization).
func (om *OverlayManager) loadSlot(s *slot, owner string, c *compile.Circuit) (sim.Time, error) {
	_, cost, err := om.E.Ledger().TryLoad(owner, c, s.x, false)
	if err != nil {
		return 0, err
	}
	s.circuit, s.hasOwner = c, false
	return cost, nil
}

// Register implements hostos.FPGA: non-resident circuits must fit the
// overlay area.
func (om *OverlayManager) Register(t *hostos.Task, circuit string) error {
	c, err := om.E.Circuit(circuit)
	if err != nil {
		return err
	}
	if _, resident := om.residents[circuit]; resident {
		return nil
	}
	if c.BS.W > om.overlayW {
		return fmt.Errorf("core: circuit %s needs %d columns, overlay area has %d", circuit, c.BS.W, om.overlayW)
	}
	return nil
}

// slotFor returns the slot holding (or destined to hold) the circuit and
// whether it is already loaded.
func (om *OverlayManager) slotFor(c *compile.Circuit) (*slot, bool) {
	if s, ok := om.residents[c.Name]; ok {
		return s, true
	}
	return om.overlay, om.overlay.circuit != nil && om.overlay.circuit.Name == c.Name
}

// ensure makes the task's circuit loaded with the task's state.
func (om *OverlayManager) ensure(t *hostos.Task) sim.Time {
	c := om.CircuitOf(t)
	s, loaded := om.slotFor(c)
	var cost sim.Time
	if !loaded {
		// Overlay miss: evict the occupant (saving its owner's state) and
		// download the requested function.
		if s.circuit != nil {
			if s.circuit.Sequential && s.hasOwner {
				cost += om.save(s)
			}
			om.E.Ledger().Evict(s.x)
			s.circuit = nil
		}
		loadCost, err := om.loadSlot(s, t.Name, c)
		if err != nil {
			// Wrap instead of stringifying: a *fault.EscalationError in the
			// chain must stay typed for the serve layer's recover handler.
			panic(fmt.Errorf("core: overlay load %s: %w", c.Name, err))
		}
		cost += loadCost
	}
	if c.Sequential {
		cost += om.adopt(s, t, c)
	}
	return cost
}

// Acquire implements hostos.FPGA: overlaying never blocks.
func (om *OverlayManager) Acquire(t *hostos.Task) (sim.Time, bool) {
	return om.ensure(t), true
}

// ExecTime implements hostos.FPGA.
func (om *OverlayManager) ExecTime(t *hostos.Task) sim.Time {
	s, _ := om.slotFor(om.CircuitOf(t))
	return om.ExecAt(t, s.x)
}

// Preempt implements hostos.FPGA.
func (om *OverlayManager) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	s, _ := om.slotFor(om.CircuitOf(t))
	return om.preempt(s, t, done, total)
}

// Resume implements hostos.FPGA.
func (om *OverlayManager) Resume(t *hostos.Task) sim.Time {
	return om.ensure(t)
}

// OverlayCircuit returns the name of the circuit currently in the overlay
// area ("" if empty).
func (om *OverlayManager) OverlayCircuit() string {
	if om.overlay.circuit == nil {
		return ""
	}
	return om.overlay.circuit.Name
}
