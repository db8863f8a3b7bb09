package netlist

import "fmt"

// This file is the circuit library: parametric generators for the logic
// the experiments load onto the virtual FPGA. Combinational datapaths
// (adders, multipliers, ALUs, coders) exercise dynamic loading and
// partitioning; sequential machines (counters, LFSRs, CRC engines,
// accumulators) exercise preemption with state save/restore.

// Adder returns a width-bit ripple-carry adder: inputs a, b and cin;
// outputs sum[width] and cout.
func Adder(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("adder%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	cin := b.Input("cin")
	sum, cout := addBits(b, a, bb, cin)
	b.OutputBus("sum", sum)
	b.Output("cout", cout)
	return b.MustBuild()
}

// addBits builds a ripple-carry adder inside an existing builder and
// returns the sum bits and carry out.
func addBits(b *Builder, a, bb []NodeID, cin NodeID) (sum []NodeID, cout NodeID) {
	if len(a) != len(bb) {
		panic("netlist: addBits with mismatched widths")
	}
	carry := cin
	sum = make([]NodeID, len(a))
	for i := range a {
		axb := b.Xor(a[i], bb[i])
		sum[i] = b.Xor(axb, carry)
		carry = b.Or(b.And(a[i], bb[i]), b.And(axb, carry))
	}
	return sum, carry
}

// Subtractor returns a width-bit subtractor computing a-b: outputs
// diff[width] and borrow.
func Subtractor(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("sub%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	notB := make([]NodeID, width)
	for i := range bb {
		notB[i] = b.Not(bb[i])
	}
	one := b.Const(true)
	diff, carry := addBits(b, a, notB, one)
	b.OutputBus("diff", diff)
	b.Output("borrow", b.Not(carry))
	return b.MustBuild()
}

// Comparator returns a width-bit unsigned comparator with outputs eq and lt
// (a < b).
func Comparator(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("cmp%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	eq := b.Const(true)
	lt := b.Const(false)
	// Scan from MSB down: lt is set at the first differing bit where a=0.
	for i := width - 1; i >= 0; i-- {
		bitEq := b.Not(b.Xor(a[i], bb[i]))
		bitLt := b.And(b.Not(a[i]), bb[i])
		lt = b.Or(lt, b.And(eq, bitLt))
		eq = b.And(eq, bitEq)
	}
	b.Output("eq", eq)
	b.Output("lt", lt)
	return b.MustBuild()
}

// Multiplier returns a width x width array multiplier with a 2*width-bit
// product.
func Multiplier(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("mul%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	zero := b.Const(false)
	// Accumulate partial products row by row with ripple adders.
	acc := make([]NodeID, 2*width)
	for i := range acc {
		acc[i] = zero
	}
	for i := 0; i < width; i++ {
		// partial product row i: (a AND b[i]) << i, width bits wide
		row := make([]NodeID, 2*width)
		for k := range row {
			row[k] = zero
		}
		for j := 0; j < width; j++ {
			row[i+j] = b.And(a[j], bb[i])
		}
		acc, _ = addBits(b, acc, row, zero)
	}
	b.OutputBus("p", acc)
	return b.MustBuild()
}

// PopCount returns a circuit counting the set bits of a width-bit input.
func PopCount(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("popcount%d", width))
	in := b.InputBus("x", width)
	outBits := 1
	for (1 << outBits) <= width {
		outBits++
	}
	zero := b.Const(false)
	acc := make([]NodeID, outBits)
	for i := range acc {
		acc[i] = zero
	}
	for _, bit := range in {
		addend := make([]NodeID, outBits)
		addend[0] = bit
		for i := 1; i < outBits; i++ {
			addend[i] = zero
		}
		acc, _ = addBits(b, acc, addend, zero)
	}
	b.OutputBus("count", acc)
	return b.MustBuild()
}

// Parity returns the XOR reduction of a width-bit input.
func Parity(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("parity%d", width))
	in := b.InputBus("x", width)
	b.Output("p", b.Xor(in...))
	return b.MustBuild()
}

// MuxTree returns a 2^selBits:1 multiplexer.
func MuxTree(selBits int) *Netlist {
	b := NewBuilder(fmt.Sprintf("mux%d", 1<<selBits))
	data := b.InputBus("d", 1<<selBits)
	sel := b.InputBus("sel", selBits)
	layer := data
	for s := 0; s < selBits; s++ {
		next := make([]NodeID, len(layer)/2)
		for i := range next {
			next[i] = b.Mux(sel[s], layer[2*i], layer[2*i+1])
		}
		layer = next
	}
	b.Output("y", layer[0])
	return b.MustBuild()
}

// PriorityEncoder returns a width-bit priority encoder: outputs the index
// of the highest set bit (idx bus) and a valid flag.
func PriorityEncoder(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("prienc%d", width))
	in := b.InputBus("x", width)
	outBits := 1
	for (1 << outBits) < width {
		outBits++
	}
	zero := b.Const(false)
	idx := make([]NodeID, outBits)
	for i := range idx {
		idx[i] = zero
	}
	valid := zero
	// Scan from LSB to MSB so higher bits override.
	for i := 0; i < width; i++ {
		for k := 0; k < outBits; k++ {
			bitSet := i&(1<<uint(k)) != 0
			var v NodeID
			if bitSet {
				v = b.Const(true)
			} else {
				v = b.Const(false)
			}
			idx[k] = b.Mux(in[i], idx[k], v)
		}
		valid = b.Or(valid, in[i])
	}
	b.OutputBus("idx", idx)
	b.Output("valid", valid)
	return b.MustBuild()
}

// BarrelShifter returns a width-bit left rotator: y = x rotl sh, where
// width must be a power of two and sh has log2(width) bits.
func BarrelShifter(width int) *Netlist {
	if width&(width-1) != 0 {
		panic("netlist: BarrelShifter width must be a power of two")
	}
	shBits := 0
	for (1 << shBits) < width {
		shBits++
	}
	b := NewBuilder(fmt.Sprintf("rotl%d", width))
	x := b.InputBus("x", width)
	sh := b.InputBus("sh", shBits)
	cur := x
	for s := 0; s < shBits; s++ {
		amount := 1 << s
		next := make([]NodeID, width)
		for i := 0; i < width; i++ {
			next[i] = b.Mux(sh[s], cur[i], cur[(i-amount+width)%width])
		}
		cur = next
	}
	b.OutputBus("y", cur)
	return b.MustBuild()
}

// ALU returns a width-bit ALU with a 2-bit op select:
// op=0 AND, op=1 OR, op=2 XOR, op=3 ADD. Outputs y[width].
func ALU(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("alu%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	op := b.InputBus("op", 2)
	zero := b.Const(false)
	sum, _ := addBits(b, a, bb, zero)
	y := make([]NodeID, width)
	for i := 0; i < width; i++ {
		andv := b.And(a[i], bb[i])
		orv := b.Or(a[i], bb[i])
		xorv := b.Xor(a[i], bb[i])
		lo := b.Mux(op[0], andv, orv)    // op1=0
		hi := b.Mux(op[0], xorv, sum[i]) // op1=1
		y[i] = b.Mux(op[1], lo, hi)
	}
	b.OutputBus("y", y)
	return b.MustBuild()
}

// GrayEncoder converts a width-bit binary input to Gray code.
func GrayEncoder(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("gray%d", width))
	in := b.InputBus("bin", width)
	out := make([]NodeID, width)
	for i := 0; i < width-1; i++ {
		out[i] = b.Xor(in[i], in[i+1])
	}
	out[width-1] = b.Buf(in[width-1])
	b.OutputBus("gray", out)
	return b.MustBuild()
}

// Counter returns a width-bit up counter with an enable input. Outputs the
// current count; state advances each cycle when en=1.
func Counter(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("counter%d", width))
	en := b.Input("en")
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	carry := en
	for i := 0; i < width; i++ {
		setD[i](b.Xor(q[i], carry))
		carry = b.And(carry, q[i])
	}
	b.OutputBus("count", q)
	return b.MustBuild()
}

// feedback creates a DFF whose D input can be defined after its output is
// used, which every sequential generator needs (next-state logic reads the
// present state). It returns the DFF output id and a setter for the D
// source; until the setter is called the DFF feeds back on itself.
func feedback(b *Builder, init bool) (q NodeID, setD func(NodeID)) {
	q = b.DFF(0, init)
	b.nl.Nodes[q].Fanin[0] = q
	return q, func(d NodeID) { b.nl.Nodes[q].Fanin[0] = d }
}

// LFSR returns a width-bit Fibonacci linear-feedback shift register with
// the given tap positions (bit indices XORed into the new bit). State
// initializes to 0...01 (bit 0 set) and shifts every cycle when en=1.
func LFSR(width int, taps []int) *Netlist {
	b := NewBuilder(fmt.Sprintf("lfsr%d", width))
	en := b.Input("en")
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, i == 0)
	}
	fbBits := make([]NodeID, 0, len(taps))
	for _, t := range taps {
		if t < 0 || t >= width {
			panic(fmt.Sprintf("netlist: LFSR tap %d out of range", t))
		}
		fbBits = append(fbBits, q[t])
	}
	newBit := b.Xor(fbBits...)
	// Shift toward higher indices; bit 0 receives the feedback.
	setD[0](b.Mux(en, q[0], newBit))
	for i := 1; i < width; i++ {
		setD[i](b.Mux(en, q[i], q[i-1]))
	}
	b.OutputBus("state", q)
	return b.MustBuild()
}

// CRC returns a serial CRC engine of the given width and polynomial
// (polynomial bit i set means term x^i; the x^width term is implicit).
// Each cycle it shifts in one data bit (din); the register is exposed.
func CRC(width int, poly uint64) *Netlist {
	b := NewBuilder(fmt.Sprintf("crc%d_%x", width, poly))
	din := b.Input("din")
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	fb := b.Xor(din, q[width-1])
	for i := 0; i < width; i++ {
		var prev NodeID
		if i == 0 {
			prev = b.Const(false)
		} else {
			prev = q[i-1]
		}
		if poly&(1<<uint(i)) != 0 {
			setD[i](b.Xor(prev, fb))
		} else if i == 0 {
			setD[i](fb)
		} else {
			setD[i](prev)
		}
	}
	b.OutputBus("crc", q)
	return b.MustBuild()
}

// Accumulator returns a width-bit accumulator: each cycle with en=1 it
// adds the input bus to its register. The register value is the output.
func Accumulator(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("acc%d", width))
	en := b.Input("en")
	x := b.InputBus("x", width)
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	zero := b.Const(false)
	sum, _ := addBits(b, q, x, zero)
	for i := 0; i < width; i++ {
		setD[i](b.Mux(en, q[i], sum[i]))
	}
	b.OutputBus("acc", q)
	return b.MustBuild()
}

// ShiftRegister returns a width-bit serial-in shift register with the full
// register exposed as output.
func ShiftRegister(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("shreg%d", width))
	din := b.Input("din")
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	setD[0](din)
	for i := 1; i < width; i++ {
		setD[i](q[i-1])
	}
	b.OutputBus("q", q)
	return b.MustBuild()
}
