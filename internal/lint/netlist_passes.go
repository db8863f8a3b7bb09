package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Every netlist a Target carries has passed the netlist package's check:
// Builder.Build, Concat, Optimize and Segment all end in it. Node ids
// match their slots, arities hold, fanins are in range and never read an
// output port, ports are named, no two ports of one kind share a name,
// and there is no combinational cycle. The passes here take those rules
// as given and report only what a checked netlist may still carry.

func nodePos(t *Target, nl *netlist.Netlist, id netlist.NodeID) string {
	nd := &nl.Nodes[id]
	if nd.Name != "" {
		return fmt.Sprintf("%s: node %d (%v %q)", nl.Name, id, nd.Kind, nd.Name)
	}
	return fmt.Sprintf("%s: node %d (%v)", nl.Name, id, nd.Kind)
}

// passNetDrive checks drive structure: multiply-driven nets (an input
// and an output port sharing a name — in this single-driver graph
// representation, a name collision is how a net acquires two drivers),
// dangling gate outputs and unused input ports.
func passNetDrive(t *Target, r *Reporter) {
	for _, nl := range t.netlists() {
		netDriveOne(t, nl, r)
	}
}

func netDriveOne(t *Target, nl *netlist.Netlist, r *Reporter) {
	// Multiply-driven: two ports with the same name alias one net under
	// two drivers (Concat and Segment both rely on names being unique).
	// The check refuses two of one kind; an input and an output pass it.
	seen := map[string]netlist.NodeID{}
	for _, lists := range [][]netlist.NodeID{nl.Inputs, nl.Outputs} {
		for _, id := range lists {
			name := nl.Nodes[id].Name
			if prev, dup := seen[name]; dup {
				r.Errorf(nodePos(t, nl, id), "multiply-driven net: port %q already declared at node %d", name, prev)
			} else {
				seen[name] = id
			}
		}
	}
	// Dangling: a driver nobody consumes.
	consumed := make([]bool, len(nl.Nodes))
	for i := range nl.Nodes {
		for _, f := range nl.Nodes[i].Fanin {
			consumed[f] = true
		}
	}
	for i := range nl.Nodes {
		if consumed[i] {
			continue
		}
		switch nl.Nodes[i].Kind {
		case netlist.KindInput:
			r.Warnf(nodePos(t, nl, netlist.NodeID(i)), "unused input port")
		case netlist.KindOutput, netlist.KindConst, netlist.KindDFF:
			// Outputs are sinks; unused constants are harmless noise the
			// optimizer folds; dangling DFFs are seq-preempt's finding.
		default:
			r.Warnf(nodePos(t, nl, netlist.NodeID(i)), "dangling net: gate output has no consumers")
		}
	}
}

// busBit parses "name[idx]" port names; ok is false for scalar ports.
func busBit(name string) (base string, idx int, ok bool) {
	if !strings.HasSuffix(name, "]") {
		return "", 0, false
	}
	open := strings.LastIndexByte(name, '[')
	if open <= 0 {
		return "", 0, false
	}
	v, err := strconv.Atoi(name[open+1 : len(name)-1])
	if err != nil || v < 0 {
		return "", 0, false
	}
	return name[:open], v, true
}

// passPortWidth checks bus-shaped port groups for width consistency —
// a bus "q" declared via ports q[0..w) must have every bit exactly once
// and no scalar port aliasing the base name — and, when the target
// carries a Segment stage chain, that the boundary-wire interface
// between stages is complete: every wire a stage imports was exported
// by an earlier stage (or is an original primary input), and the chain
// reproduces every original output. These are the width/interface bugs
// Concat and Segment can introduce when port names collide or a stage
// boundary drops a wire.
func passPortWidth(t *Target, r *Reporter) {
	if t.Netlist != nil {
		portWidthOne(t, t.Netlist, true, r)
	}
	// A segment stage legitimately carries a partial bus slice (the bits
	// its gates happen to produce), so only duplicate bits and scalar
	// aliasing are wrong within a stage; completeness is checked across
	// the whole chain below.
	for _, st := range t.Segments {
		portWidthOne(t, st, false, r)
	}
	if len(t.Segments) > 0 && t.Netlist != nil {
		segmentChain(t, r)
	}
}

func portWidthOne(t *Target, nl *netlist.Netlist, wantComplete bool, r *Reporter) {
	check := func(dir string, names []string) {
		type group struct {
			bits map[int][]string // idx -> names claiming it
			max  int
		}
		groups := map[string]*group{}
		scalars := map[string]bool{}
		for _, name := range names {
			base, idx, ok := busBit(name)
			if !ok {
				scalars[name] = true
				continue
			}
			g := groups[base]
			if g == nil {
				g = &group{bits: map[int][]string{}}
				groups[base] = g
			}
			g.bits[idx] = append(g.bits[idx], name)
			if idx > g.max {
				g.max = idx
			}
		}
		bases := make([]string, 0, len(groups))
		for base := range groups {
			bases = append(bases, base)
		}
		sort.Strings(bases)
		for _, base := range bases {
			g := groups[base]
			pos := fmt.Sprintf("%s: %s bus %q", nl.Name, dir, base)
			if scalars[base] {
				r.Errorf(pos, "scalar port %q aliases bus bits %s[0..%d]", base, base, g.max)
			}
			var missing []string
			for i := 0; i <= g.max; i++ {
				switch n := len(g.bits[i]); {
				case n == 0:
					missing = append(missing, strconv.Itoa(i))
				case n > 1:
					r.Errorf(pos, "bit %d declared %d times", i, n)
				}
			}
			if wantComplete && len(missing) > 0 {
				r.Errorf(pos, "width mismatch: bits 0..%d declared but bit(s) %s missing",
					g.max, strings.Join(missing, ","))
			}
		}
	}
	check("input", nl.InputNames())
	check("output", nl.OutputNames())
}

// segmentChain replays the host-side wire environment of a segmented
// application symbolically: stage k may only import original inputs and
// wires exported by stages < k.
func segmentChain(t *Target, r *Reporter) {
	orig := t.Netlist
	produced := map[string]string{} // wire/port name -> producing stage
	for _, name := range orig.InputNames() {
		produced[name] = "primary inputs"
	}
	for _, st := range t.Segments {
		pos := fmt.Sprintf("%s: stage %s", orig.Name, st.Name)
		for _, name := range st.InputNames() {
			if _, ok := produced[name]; !ok {
				r.Errorf(pos, "imports wire %q that no earlier stage exports", name)
			}
		}
		for _, name := range st.OutputNames() {
			if by, dup := produced[name]; dup && by != "primary inputs" {
				r.Errorf(pos, "re-exports wire %q already produced by %s", name, by)
			}
			produced[name] = st.Name
		}
	}
	for _, name := range orig.OutputNames() {
		if _, ok := produced[name]; !ok {
			r.Errorf(fmt.Sprintf("%s: segment chain", orig.Name),
				"original output %q is produced by no stage", name)
		}
	}
}

// liveSet marks every node from which some primary output is reachable
// (reverse reachability over all fanin edges; DFFs are transparent, so
// state feeding observable logic is itself observable).
func liveSet(nl *netlist.Netlist) []bool {
	live := make([]bool, len(nl.Nodes))
	var stack []netlist.NodeID
	for _, o := range nl.Outputs {
		if !live[o] {
			live[o] = true
			stack = append(stack, o)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range nl.Nodes[id].Fanin {
			if !live[f] {
				live[f] = true
				stack = append(stack, f)
			}
		}
	}
	return live
}

// passDeadLogic flags gates that cannot influence any primary output.
// Dead logic still costs CLBs, download time and (registered) readback
// volume, and the optimizer is entitled to delete it — so its presence
// in a hand-written netlist is almost always a wiring mistake.
func passDeadLogic(t *Target, r *Reporter) {
	for _, nl := range t.netlists() {
		live := liveSet(nl)
		for i := range nl.Nodes {
			if live[i] {
				continue
			}
			switch nl.Nodes[i].Kind {
			case netlist.KindInput, netlist.KindOutput, netlist.KindConst, netlist.KindDFF:
				// inputs/consts: net-drive's finding; DFFs: seq-preempt's.
			default:
				r.Warnf(nodePos(t, nl, netlist.NodeID(i)), "dead logic: no path to any output")
			}
		}
	}
}

// passSeqPreempt checks the paper's preemption requirement: to suspend
// a hardware task, the OS must be able to observe (read back) and later
// restore every bit of its sequential state. A flip-flop that cannot
// reach any output is dead state — the mapper may drop it, and nothing
// can verify that a preempt/resume round trip preserved it. When the
// compiled bitstream is present, the pass also cross-checks that the
// netlist's state volume survived mapping into registered cells, reading
// the bitstream's FFCells (bitstream-bounds holds it to the cells).
func passSeqPreempt(t *Target, r *Reporter) {
	nl := t.Netlist
	if nl != nil && nl.IsSequential() {
		live := liveSet(nl)
		unobservable := 0
		for _, id := range nl.DFFs {
			if live[id] {
				continue
			}
			unobservable++
			r.Warnf(nodePos(t, nl, id),
				"flip-flop state is not observable: no path from this DFF to any output, so a preempt/restore round trip cannot be verified")
		}
		if unobservable > 0 {
			r.Warnf(nl.Name+": sequential state",
				"%d of %d flip-flops are unobservable; the circuit is not fully preemptable", unobservable, len(nl.DFFs))
		}
	}
	bs := t.Bitstream
	if bs == nil || nl == nil {
		return
	}
	if nl.IsSequential() && bs.FFCells == 0 {
		r.Errorf(bs.Name+": state volume",
			"sequential netlist (%d DFFs) mapped to zero registered cells: state cannot be read back", nl.NumDFFs())
	}
	if bs.FFCells > 0 && bs.FFCells < nl.NumDFFs() {
		r.Infof(bs.Name+": state volume",
			"%d of %d netlist flip-flops survive as registered cells (optimizer pruning)", bs.FFCells, nl.NumDFFs())
	}
}

// netlists returns the netlist set the per-netlist passes run over: the
// main target plus every segment stage.
func (t *Target) netlists() []*netlist.Netlist {
	var out []*netlist.Netlist
	if t.Netlist != nil {
		out = append(out, t.Netlist)
	}
	out = append(out, t.Segments...)
	return out
}
