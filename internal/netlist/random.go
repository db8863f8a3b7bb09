package netlist

import (
	"fmt"

	"repro/internal/rng"
)

// RandomConfig parameterizes random netlist generation for fuzz-style
// equivalence testing: the whole CAD flow (mapping, placement, routing,
// bitstream, fabric execution) is validated against the gate-level golden
// model on arbitrary circuits, not just the hand-written library.
type RandomConfig struct {
	Inputs  int
	Outputs int
	Gates   int
	// DFFProb is the probability that an internal node is a flip-flop
	// (introducing sequential feedback); 0 yields pure combinational logic.
	DFFProb float64
	// ConstProb is the probability a gate input is tied to a constant.
	ConstProb float64
}

// Random generates a structurally valid random netlist. Gate fanins are
// drawn from already-created nodes, so the combinational graph is a DAG
// by construction; flip-flops may additionally feed back to any node
// created later (sequential loops, which are legal).
//
//vfpgavet:ignore testonly -- the random-netlist fixture the netlist, route, lint and compile tests share
func Random(src *rng.Source, cfg RandomConfig) *Netlist {
	if cfg.Inputs <= 0 {
		cfg.Inputs = 1
	}
	if cfg.Outputs <= 0 {
		cfg.Outputs = 1
	}
	b := NewBuilder(fmt.Sprintf("rand_i%d_o%d_g%d", cfg.Inputs, cfg.Outputs, cfg.Gates))
	pool := make([]NodeID, 0, cfg.Inputs+cfg.Gates)
	for i := 0; i < cfg.Inputs; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("in%d", i)))
	}
	// Pre-create flip-flops so gates can read them (their D inputs are
	// patched afterwards, closing sequential loops).
	type pendingFF struct {
		q    NodeID
		setD func(NodeID)
	}
	var ffs []pendingFF
	nFF := 0
	if cfg.DFFProb > 0 {
		nFF = int(float64(cfg.Gates) * cfg.DFFProb)
	}
	for i := 0; i < nFF; i++ {
		q, setD := feedback(b, src.Bool())
		ffs = append(ffs, pendingFF{q, setD})
		pool = append(pool, q)
	}

	pick := func() NodeID {
		if cfg.ConstProb > 0 && src.Float64() < cfg.ConstProb {
			return b.Const(src.Bool())
		}
		return pool[src.Intn(len(pool))]
	}
	for g := 0; g < cfg.Gates; g++ {
		var id NodeID
		switch src.Intn(7) {
		case 0:
			id = b.And(pick(), pick())
		case 1:
			id = b.Or(pick(), pick())
		case 2:
			id = b.Xor(pick(), pick())
		case 3:
			id = b.Nand(pick(), pick())
		case 4:
			id = b.Nor(pick(), pick())
		case 5:
			id = b.Not(pick())
		default:
			id = b.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, ff := range ffs {
		ff.setD(pool[src.Intn(len(pool))])
	}
	for o := 0; o < cfg.Outputs; o++ {
		b.Output(fmt.Sprintf("out%d", o), pool[src.Intn(len(pool))])
	}
	return b.MustBuild()
}
