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

// NewOverlayManager loads the resident circuits, compiled for e, and
// reserves the remaining columns as the overlay area. Resident load time
// is charged to system initialization, not to any task (the paper's
// device-driver downloading "performed once for all tasks"). It renews
// used, the board's last overlay manager, in place (nil: a new one).
func NewOverlayManager(k *sim.Kernel, e *Engine, resident []*compile.Circuit, used *OverlayManager) (*OverlayManager, sim.Time, error) {
	om := used
	if om == nil {
		om = &OverlayManager{}
	}
	*om = OverlayManager{
		stateTable: newStateTable(NewTaskKernel(k, e, "overlay", &om.TaskKernel), &om.stateTable, len(resident)+1),
		residents:  emptiedMap(om.residents),
	}
	x := 0
	var initCost sim.Time
	for i, c := range resident {
		if x+c.BS.W > e.Opt.Geometry.Cols {
			return nil, 0, fmt.Errorf("core: resident circuits exceed the device (%d+%d > %d cols)",
				x, c.BS.W, e.Opt.Geometry.Cols)
		}
		_, cost, err := e.Ledger().TryLoad("", c, x, false)
		if err != nil {
			return nil, 0, err
		}
		initCost += cost
		s := &om.slots[i]
		s.x, s.circuit = x, c
		om.residents[c.Name] = s
		x += c.BS.W
	}
	om.overlay = &om.slots[len(resident)]
	om.overlay.x = x
	om.overlayW = e.Opt.Geometry.Cols - x
	return om, initCost, nil
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

// slotFor returns the slot holding, or destined to hold, t's circuit.
func (om *OverlayManager) slotFor(t *hostos.Task) *slot {
	if s, ok := om.residents[t.CurrentRequest().Circuit]; ok {
		return s
	}
	return om.overlay
}

// Acquire implements hostos.FPGA: overlaying never blocks.
func (om *OverlayManager) Acquire(t *hostos.Task) (sim.Time, bool) {
	return om.swap(om.slotFor(t), t, false), true
}

// ExecTime implements hostos.FPGA.
func (om *OverlayManager) ExecTime(t *hostos.Task) sim.Time {
	return om.ExecAt(t, om.slotFor(t).x)
}

// Preempt implements hostos.FPGA.
func (om *OverlayManager) Preempt(t *hostos.Task, done, total sim.Time) (sim.Time, sim.Time) {
	return om.preempt(om.slotFor(t), t, done, total)
}

// Resume implements hostos.FPGA.
func (om *OverlayManager) Resume(t *hostos.Task) sim.Time {
	return om.swap(om.slotFor(t), t, false)
}

// OverlayCircuit returns the name of the circuit currently in the overlay
// area ("" if empty).
func (om *OverlayManager) OverlayCircuit() string {
	if om.overlay.circuit == nil {
		return ""
	}
	return om.overlay.circuit.Name
}
