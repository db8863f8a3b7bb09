package netlist

import "fmt"

// This file extends the circuit library with the second tier of
// generators: faster adder architectures (for the compile-flow ablation
// of area vs depth), error-coding and display circuits (the telecom and
// embedded scenarios), and small finite-state machines (sequential
// workloads with non-trivial state for preemption tests).

// cmpLT builds an unsigned a < b comparator over equal-width buses.
func cmpLT(b *Builder, a, bb []NodeID) NodeID {
	eq := b.Const(true)
	lt := b.Const(false)
	for i := len(a) - 1; i >= 0; i-- {
		bitEq := b.Not(b.Xor(a[i], bb[i]))
		bitLt := b.And(b.Not(a[i]), bb[i])
		lt = b.Or(lt, b.And(eq, bitLt))
		eq = b.And(eq, bitEq)
	}
	return lt
}

// muxBus selects z when sel=0, o when sel=1, bitwise.
func muxBus(b *Builder, sel NodeID, z, o []NodeID) []NodeID {
	out := make([]NodeID, len(z))
	for i := range z {
		out[i] = b.Mux(sel, z[i], o[i])
	}
	return out
}

// CLAAdder returns a width-bit carry-lookahead adder (4-bit groups):
// same function as Adder but shallower carry logic — the depth/area
// trade the compile flow can measure.
func CLAAdder(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("cla%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	cin := b.Input("cin")

	g := make([]NodeID, width) // generate
	p := make([]NodeID, width) // propagate
	for i := 0; i < width; i++ {
		g[i] = b.And(a[i], bb[i])
		p[i] = b.Xor(a[i], bb[i])
	}
	carry := make([]NodeID, width+1)
	carry[0] = cin
	for base := 0; base < width; base += 4 {
		n := 4
		if base+n > width {
			n = width - base
		}
		// Within the group, carries expand flat over g/p (the lookahead):
		// c_{i+1} = g_i + p_i*g_{i-1} + ... + p_i*...*p_0*c_base.
		for i := 0; i < n; i++ {
			acc := g[base+i]
			prodChain := p[base+i]
			for j := i - 1; j >= 0; j-- {
				acc = b.Or(acc, b.And(prodChain, g[base+j]))
				prodChain = b.And(prodChain, p[base+j])
			}
			carry[base+i+1] = b.Or(acc, b.And(prodChain, carry[base]))
		}
	}
	sum := make([]NodeID, width)
	for i := 0; i < width; i++ {
		sum[i] = b.Xor(p[i], carry[i])
	}
	b.OutputBus("sum", sum)
	b.Output("cout", carry[width])
	return b.MustBuild()
}

// CarrySelectAdder returns a width-bit carry-select adder with the given
// block size: each block computes both carry assumptions in parallel.
func CarrySelectAdder(width, block int) *Netlist {
	if block <= 0 {
		block = 4
	}
	b := NewBuilder(fmt.Sprintf("csel%d_%d", width, block))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	cin := b.Input("cin")

	carry := cin
	var sum []NodeID
	for base := 0; base < width; base += block {
		n := block
		if base+n > width {
			n = width - base
		}
		s0, c0 := addBits(b, a[base:base+n], bb[base:base+n], b.Const(false))
		s1, c1 := addBits(b, a[base:base+n], bb[base:base+n], b.Const(true))
		sum = append(sum, muxBus(b, carry, s0, s1)...)
		carry = b.Mux(carry, c0, c1)
	}
	b.OutputBus("sum", sum)
	b.Output("cout", carry)
	return b.MustBuild()
}

// AbsDiff returns |a - b| over width-bit unsigned inputs.
func AbsDiff(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("absdiff%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	notB := make([]NodeID, width)
	notA := make([]NodeID, width)
	for i := 0; i < width; i++ {
		notB[i] = b.Not(bb[i])
		notA[i] = b.Not(a[i])
	}
	one := b.Const(true)
	amb, _ := addBits(b, a, notB, one)  // a - b
	bma, _ := addBits(b, bb, notA, one) // b - a
	lt := cmpLT(b, a, bb)
	b.OutputBus("d", muxBus(b, lt, amb, bma))
	return b.MustBuild()
}

// MinMax returns the minimum and maximum of two width-bit inputs.
func MinMax(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("minmax%d", width))
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	lt := cmpLT(b, a, bb)
	b.OutputBus("min", muxBus(b, lt, bb, a))
	b.OutputBus("max", muxBus(b, lt, a, bb))
	return b.MustBuild()
}

// CLZ returns a count-leading-zeros circuit over a width-bit input
// (width must be a power of two). Output has log2(width)+1 bits (the
// extra bit encodes the all-zero case).
func CLZ(width int) *Netlist {
	if width&(width-1) != 0 {
		panic("netlist: CLZ width must be a power of two")
	}
	b := NewBuilder(fmt.Sprintf("clz%d", width))
	x := b.InputBus("x", width)
	outBits := 1
	for (1 << outBits) < width {
		outBits++
	}
	outBits++ // all-zero case needs one more bit

	// Priority-encode from the top: the highest set bit at position p
	// gives clz = width-1-p; all-zero gives clz = width.
	count := make([]NodeID, outBits)
	zero := b.Const(false)
	for i := range count {
		count[i] = zero
	}
	// Walk from MSB: the first set bit at position p gives clz = width-1-p.
	found := b.Const(false)
	for p := width - 1; p >= 0; p-- {
		v := width - 1 - p
		sel := b.And(b.Not(found), x[p]) // first set bit
		for k := 0; k < outBits; k++ {
			if v&(1<<uint(k)) != 0 {
				count[k] = b.Mux(sel, count[k], b.Const(true))
			}
		}
		found = b.Or(found, x[p])
	}
	// All-zero: clz = width.
	allZero := b.Not(found)
	for k := 0; k < outBits; k++ {
		if width&(1<<uint(k)) != 0 {
			count[k] = b.Mux(allZero, count[k], b.Const(true))
		}
	}
	b.OutputBus("clz", count)
	return b.MustBuild()
}

// Hamming74Encoder returns the (7,4) Hamming encoder: 4 data bits in,
// 7 code bits out (p1 p2 d1 p4 d2 d3 d4 in positions 1..7, output bus
// index i = position i+1).
func Hamming74Encoder() *Netlist {
	b := NewBuilder("hamming74enc")
	d := b.InputBus("d", 4)
	p1 := b.Xor(d[0], d[1], d[3])
	p2 := b.Xor(d[0], d[2], d[3])
	p4 := b.Xor(d[1], d[2], d[3])
	b.OutputBus("c", []NodeID{p1, p2, d[0], p4, d[1], d[2], d[3]})
	return b.MustBuild()
}

// Hamming74Decoder returns the (7,4) Hamming decoder with single-error
// correction: 7 code bits in, 4 corrected data bits plus an error flag.
func Hamming74Decoder() *Netlist {
	b := NewBuilder("hamming74dec")
	c := b.InputBus("c", 7) // positions 1..7 at indices 0..6
	s1 := b.Xor(c[0], c[2], c[4], c[6])
	s2 := b.Xor(c[1], c[2], c[5], c[6])
	s4 := b.Xor(c[3], c[4], c[5], c[6])
	// Correct position s (1-based) when syndrome non-zero.
	corrected := make([]NodeID, 7)
	for pos := 1; pos <= 7; pos++ {
		m1, m2, m4 := pos&1 != 0, pos&2 != 0, pos&4 != 0
		t1, t2, t4 := s1, s2, s4
		if !m1 {
			t1 = b.Not(s1)
		}
		if !m2 {
			t2 = b.Not(s2)
		}
		if !m4 {
			t4 = b.Not(s4)
		}
		hit := b.And(b.And(t1, t2), t4)
		corrected[pos-1] = b.Xor(c[pos-1], hit)
	}
	b.OutputBus("d", []NodeID{corrected[2], corrected[4], corrected[5], corrected[6]})
	b.Output("err", b.Or(b.Or(s1, s2), s4))
	return b.MustBuild()
}

// SevenSeg returns a hexadecimal 7-segment decoder: 4-bit input, 7
// segment outputs (a..g, active high), standard hex glyphs.
func SevenSeg() *Netlist {
	b := NewBuilder("sevenseg")
	in := b.InputBus("n", 4)
	// Segment patterns for 0..F, bit i of pattern = segment i (a..g).
	patterns := [16]uint8{
		0x3F, 0x06, 0x5B, 0x4F, 0x66, 0x6D, 0x7D, 0x07,
		0x7F, 0x6F, 0x77, 0x7C, 0x39, 0x5E, 0x79, 0x71,
	}
	segs := make([]NodeID, 7)
	for s := 0; s < 7; s++ {
		// Build the minterm sum via a mux tree over the 4 inputs.
		cur := make([]NodeID, 16)
		for v := 0; v < 16; v++ {
			cur[v] = b.Const(patterns[v]&(1<<uint(s)) != 0)
		}
		for level := 0; level < 4; level++ {
			next := make([]NodeID, len(cur)/2)
			for i := range next {
				next[i] = b.Mux(in[level], cur[2*i], cur[2*i+1])
			}
			cur = next
		}
		segs[s] = cur[0]
	}
	b.OutputBus("seg", segs)
	return b.MustBuild()
}

// SortNet4 returns a Batcher sorting network for four width-bit unsigned
// values: inputs v0..v3, outputs s0 <= s1 <= s2 <= s3.
func SortNet4(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("sort4x%d", width))
	vals := make([][]NodeID, 4)
	for i := range vals {
		vals[i] = b.InputBus(fmt.Sprintf("v%d", i), width)
	}
	swap := func(i, j int) {
		lt := cmpLT(b, vals[j], vals[i]) // vals[j] < vals[i] -> exchange
		lo := muxBus(b, lt, vals[i], vals[j])
		hi := muxBus(b, lt, vals[j], vals[i])
		vals[i], vals[j] = lo, hi
	}
	swap(0, 1)
	swap(2, 3)
	swap(0, 2)
	swap(1, 3)
	swap(1, 2)
	for i := range vals {
		b.OutputBus(fmt.Sprintf("s%d", i), vals[i])
	}
	return b.MustBuild()
}

// JohnsonCounter returns a width-bit Johnson (twisted-ring) counter with
// enable; period 2*width.
func JohnsonCounter(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("johnson%d", width))
	en := b.Input("en")
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	setD[0](b.Mux(en, q[0], b.Not(q[width-1])))
	for i := 1; i < width; i++ {
		setD[i](b.Mux(en, q[i], q[i-1]))
	}
	b.OutputBus("q", q)
	return b.MustBuild()
}

// GrayCounter returns a width-bit counter whose output is Gray-coded:
// binary core registers plus combinational Gray conversion.
func GrayCounter(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("graycnt%d", width))
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
	gray := make([]NodeID, width)
	for i := 0; i < width-1; i++ {
		gray[i] = b.Xor(q[i], q[i+1])
	}
	gray[width-1] = b.Buf(q[width-1])
	b.OutputBus("gray", gray)
	return b.MustBuild()
}

// SeqDetector returns a Moore machine detecting the bit pattern (with
// overlap) on a serial input: output goes high the cycle after the final
// pattern bit arrived.
func SeqDetector(pattern []bool) *Netlist {
	if len(pattern) == 0 {
		panic("netlist: empty pattern")
	}
	name := "seqdet_"
	for _, p := range pattern {
		if p {
			name += "1"
		} else {
			name += "0"
		}
	}
	b := NewBuilder(name)
	din := b.Input("din")
	n := len(pattern)
	// Shift register of the last n bits.
	q := make([]NodeID, n)
	setD := make([]func(NodeID), n)
	for i := 0; i < n; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	setD[0](din)
	for i := 1; i < n; i++ {
		setD[i](q[i-1])
	}
	// Valid counter: output only meaningful once n bits have shifted in.
	// Use an n-state one-hot "warmup" chain.
	warm := make([]NodeID, n)
	setW := make([]func(NodeID), n)
	for i := 0; i < n; i++ {
		warm[i], setW[i] = feedback(b, false)
	}
	setW[0](b.Const(true))
	for i := 1; i < n; i++ {
		setW[i](warm[i-1])
	}
	match := warm[n-1]
	for i := 0; i < n; i++ {
		// q[0] holds the newest bit = pattern's last element.
		want := pattern[n-1-i]
		bit := q[i]
		if !want {
			bit = b.Not(bit)
		}
		match = b.And(match, bit)
	}
	b.Output("hit", match)
	return b.MustBuild()
}

// PWM returns a pulse-width modulator: a free-running width-bit counter
// compared against the duty input; out is high while counter < duty.
func PWM(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("pwm%d", width))
	duty := b.InputBus("duty", width)
	q := make([]NodeID, width)
	setD := make([]func(NodeID), width)
	for i := 0; i < width; i++ {
		q[i], setD[i] = feedback(b, false)
	}
	carry := b.Const(true)
	for i := 0; i < width; i++ {
		setD[i](b.Xor(q[i], carry))
		carry = b.And(carry, q[i])
	}
	b.Output("out", cmpLT(b, q, duty))
	b.OutputBus("count", q)
	return b.MustBuild()
}

// TrafficLight returns the classic 3-state controller: on each tick
// advance green -> yellow -> red -> green; outputs are one-hot lamps.
func TrafficLight() *Netlist {
	b := NewBuilder("traffic")
	tick := b.Input("tick")
	// Two state bits: 00 green, 01 yellow, 10 red.
	s0, set0 := feedback(b, false)
	s1, set1 := feedback(b, false)
	// next = f(state): 00->01, 01->10, 10->00.
	n0 := b.And(b.Not(s1), b.Not(s0)) // next s0 = (state==green)
	n1 := b.And(b.Not(s1), s0)        // next s1 = (state==yellow)
	set0(b.Mux(tick, s0, n0))
	set1(b.Mux(tick, s1, n1))
	b.Output("green", b.And(b.Not(s1), b.Not(s0)))
	b.Output("yellow", b.And(b.Not(s1), s0))
	b.Output("red", s1)
	return b.MustBuild()
}

// UARTTx returns a simplified 8N1 transmitter clocked at the baud rate:
// pulsing `start` with data on d[8] emits start bit, 8 data bits (LSB
// first) and a stop bit over the next 10 cycles on `line` (idle high);
// `busy` is high while transmitting. A start pulse while busy is ignored.
func UARTTx() *Netlist {
	b := NewBuilder("uarttx")
	start := b.Input("start")
	d := b.InputBus("d", 8)

	// 4-bit cycle counter: 0 = idle, 1..10 = frame position.
	cnt := make([]NodeID, 4)
	setC := make([]func(NodeID), 4)
	for i := range cnt {
		cnt[i], setC[i] = feedback(b, false)
	}
	isVal := func(v int) NodeID {
		t := b.Const(true)
		for i := 0; i < 4; i++ {
			bit := cnt[i]
			if v&(1<<uint(i)) == 0 {
				bit = b.Not(bit)
			}
			t = b.And(t, bit)
		}
		return t
	}
	idle := isVal(0)
	last := isVal(10)
	busy := b.Not(idle)
	accept := b.And(idle, start)
	// Data positions: cnt 2..9 emit sh[0].
	isData := b.Const(false)
	for v := 2; v <= 9; v++ {
		isData = b.Or(isData, isVal(v))
	}

	// Shift register latches data on accept and shifts after each data
	// position has been emitted (shifting any earlier would consume d0
	// during the start bit).
	sh := make([]NodeID, 8)
	setS := make([]func(NodeID), 8)
	for i := range sh {
		sh[i], setS[i] = feedback(b, false)
	}
	for i := 0; i < 8; i++ {
		var shifted NodeID
		if i == 7 {
			shifted = b.Const(true) // fill with stop-bit level
		} else {
			shifted = sh[i+1]
		}
		setS[i](b.Mux(accept, b.Mux(isData, sh[i], shifted), d[i]))
	}

	// Counter next: accept -> 1; busy -> +1 until 10 then 0; idle holds 0.
	inc := make([]NodeID, 4)
	carry := b.Const(true)
	for i := 0; i < 4; i++ {
		inc[i] = b.Xor(cnt[i], carry)
		carry = b.And(carry, cnt[i])
	}
	for i := 0; i < 4; i++ {
		next := b.Mux(last, inc[i], b.Const(false)) // wrap after stop bit
		v := b.Mux(busy, cnt[i], next)
		one := b.Const(i == 0)
		setC[i](b.Mux(accept, v, one))
	}

	// Line: idle/stop high, start bit low at cnt==1, data at cnt 2..9.
	isStart := isVal(1)
	line := b.Mux(isStart, b.Mux(isData, b.Const(true), sh[0]), b.Const(false))
	b.Output("line", line)
	b.Output("busy", busy)
	return b.MustBuild()
}
