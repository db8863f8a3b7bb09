package netlist

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	a := b.Input("a")
	c := b.Input("c")
	b.Output("y", b.And(a, c))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumInputs() != 2 || len(nl.Outputs) != 1 || nl.NumGates() != 1 {
		t.Fatalf("unexpected shape: %v", nl.Stats())
	}
	if nl.IsSequential() {
		t.Fatal("combinational netlist reports sequential")
	}
}

func TestBuilderReuseAfterBuildPanics(t *testing.T) {
	b := NewBuilder("t")
	b.Output("y", b.Input("a"))
	b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Fatal("builder reuse did not panic")
		}
	}()
	b.Input("z")
}

// TestDuplicatePortRejected declares ports named a: an input and an
// output may share the name (lint's multiply-driven finding), but a
// second port of one kind may not, whatever port came between.
func TestDuplicatePortRejected(t *testing.T) {
	for _, kinds := range [][]Kind{
		{KindInput, KindInput},
		{KindOutput, KindOutput},
		{KindInput, KindOutput, KindInput},
		{KindOutput, KindInput, KindOutput},
		{KindInput, KindOutput},
		{KindOutput, KindInput},
	} {
		b := NewBuilder("t")
		x := b.Input("x")
		for _, k := range kinds {
			if k == KindInput {
				b.Input("a")
			} else {
				b.Output("a", x)
			}
		}
		_, err := b.Build()
		if refuse := kinds[0] == kinds[len(kinds)-1]; (err != nil) != refuse {
			t.Fatalf("ports named a of kinds %v: Build says %v, want refused %v", kinds, err, refuse)
		}
	}
}

// TestOutOfRangeFaninRejected names a fanin before the first node, one
// just past the last and one far past it: Build refuses each.
func TestOutOfRangeFaninRejected(t *testing.T) {
	for _, f := range []NodeID{-1, 3, 9} {
		b := NewBuilder("t")
		a := b.Input("a")
		b.Output("y", b.And(a, f))
		if _, err := b.Build(); err == nil {
			t.Fatalf("fanin %d of a 3-node netlist accepted", f)
		}
	}
}

func TestReadFromOutputRejected(t *testing.T) {
	b := NewBuilder("t")
	a := b.Input("a")
	y := b.Output("y", a)
	b.Output("z", b.Not(y))
	if _, err := b.Build(); err == nil {
		t.Fatal("reading from an output port was accepted")
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	b := NewBuilder("t")
	a := b.Input("a")
	// Manually create a cycle: n1 = AND(a, n2), n2 = NOT(n1).
	n1 := b.add(KindAnd, "", false, a, 0) // placeholder second fanin
	n2 := b.Not(n1)
	b.nl.Nodes[n1].Fanin[1] = n2
	b.Output("y", n2)
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestSequentialLoopAccepted(t *testing.T) {
	// A DFF in a feedback loop is legal (that is what sequential logic is).
	b := NewBuilder("t")
	q, setD := feedback(b, false)
	setD(b.Not(q))
	b.Output("y", q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !nl.IsSequential() || nl.NumDFFs() != 1 {
		t.Fatal("DFF loop netlist shape wrong")
	}
	// Toggle flip-flop: 0,1,0,1...
	s := NewSimulator(nl)
	want := []bool{false, true, false, true}
	for i, w := range want {
		out := s.Step(nil)
		if out[0] != w {
			t.Fatalf("toggle cycle %d = %v, want %v", i, out[0], w)
		}
	}
}

// replay rebuilds nl through a Builder node for node, each with the
// fanins given: a fanin may name a later node, which is how a test plants
// a combinational loop that Build must refuse.
func replay(nl *Netlist, fanins [][]NodeID) (*Netlist, error) {
	b := NewBuilder(nl.Name)
	for i, nd := range nl.Nodes {
		f := fanins[i]
		switch nd.Kind {
		case KindInput:
			b.Input(nd.Name)
		case KindOutput:
			b.Output(nd.Name, f[0])
		case KindConst:
			b.Const(nd.Init)
		case KindBuf:
			b.Buf(f[0])
		case KindNot:
			b.Not(f[0])
		case KindAnd:
			b.And(f[0], f[1])
		case KindOr:
			b.Or(f[0], f[1])
		case KindXor:
			b.Xor(f[0], f[1])
		case KindNand:
			b.Nand(f[0], f[1])
		case KindNor:
			b.Nor(f[0], f[1])
		case KindMux:
			b.Mux(f[0], f[1], f[2])
		case KindDFF:
			b.DFF(f[0], nd.Init)
		}
	}
	return b.Build()
}

// combCycle reports, by brute force, whether some node reaches itself
// over fanins, a DFF's D input excluded.
func combCycle(nodes []Node, fanins [][]NodeID) bool {
	for u := range nodes {
		seen := make([]bool, len(nodes))
		stack := []NodeID{NodeID(u)}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nodes[x].Kind == KindDFF {
				continue
			}
			for _, f := range fanins[x] {
				if int(f) == u {
					return true
				}
				if !seen[f] {
					seen[f] = true
					stack = append(stack, f)
				}
			}
		}
	}
	return false
}

// TestBuildRefusesExactlyCombinationalCycles plants loops in random
// sequential netlists by pointing a few gate fanins at arbitrary nodes,
// later ones included: Build refuses the result exactly when the brute
// force finds a combinational cycle. A rewired fanin never reads an
// output port, so a cycle is the only fault Build can find.
func TestBuildRefusesExactlyCombinationalCycles(t *testing.T) {
	refused := 0
	const trials = 300
	for seed := uint64(1); seed <= trials; seed++ {
		src := rng.New(seed)
		nl := Random(src, RandomConfig{Inputs: 3, Outputs: 2, Gates: 14, DFFProb: 0.2})
		fanins := make([][]NodeID, len(nl.Nodes))
		for i := range nl.Nodes {
			fanins[i] = slices.Clone(nl.Nodes[i].Fanin)
		}
		for range src.Intn(3) {
			i := src.Intn(len(nl.Nodes))
			if k := nl.Nodes[i].Kind; len(fanins[i]) == 0 || k == KindOutput {
				continue
			}
			to := NodeID(src.Intn(len(nl.Nodes)))
			if nl.Nodes[to].Kind != KindOutput {
				fanins[i][src.Intn(len(fanins[i]))] = to
			}
		}
		_, err := replay(nl, fanins)
		if cycle := combCycle(nl.Nodes, fanins); cycle != (err != nil) {
			t.Fatalf("seed %d: brute force finds a cycle %v, Build says %v", seed, cycle, err)
		}
		if err != nil {
			refused++
		}
	}
	if refused == 0 || refused == trials {
		t.Fatalf("%d of %d netlists refused: the test needs both outcomes", refused, trials)
	}
	t.Logf("%d of %d netlists refused", refused, trials)
}

func TestDepth(t *testing.T) {
	b := NewBuilder("t")
	a := b.Input("a")
	c := b.Input("c")
	d := b.Input("d")
	b.Output("y", b.And(b.And(a, c), d)) // depth 2
	nl := b.MustBuild()
	if got := nl.Depth(); got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}
}

func TestKindString(t *testing.T) {
	if KindAnd.String() != "and" || KindDFF.String() != "dff" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}

func TestInputOutputNames(t *testing.T) {
	nl := Adder(2)
	in := nl.InputNames()
	if in[0] != "a[0]" || in[4] != "cin" {
		t.Fatalf("input names: %v", in)
	}
	out := nl.OutputNames()
	if out[len(out)-1] != "cout" {
		t.Fatalf("output names: %v", out)
	}
}

func TestStatsString(t *testing.T) {
	nl := Adder(4)
	s := nl.String()
	if !strings.Contains(s, "adder4") || !strings.Contains(s, "depth") {
		t.Fatalf("bad String: %q", s)
	}
}

// --- functional correctness of library circuits against Go arithmetic ---

func evalComb(t *testing.T, nl *Netlist, inputs []bool) []bool {
	t.Helper()
	return NewSimulator(nl).Eval(inputs)
}

func TestAdderExhaustiveSmall(t *testing.T) {
	nl := Adder(3)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			for c := uint64(0); c < 2; c++ {
				in := append(UintToBools(a, 3), UintToBools(b, 3)...)
				in = append(in, c == 1)
				out := evalComb(t, nl, in)
				got := BoolsToUint(out)
				want := a + b + c // sum[0..2] + cout at bit 3
				if got != want {
					t.Fatalf("adder3(%d,%d,%d) = %d, want %d", a, b, c, got, want)
				}
			}
		}
	}
}

func TestAdderProperty(t *testing.T) {
	nl := Adder(16)
	s := NewSimulator(nl)
	f := func(a, b uint16, cin bool) bool {
		in := append(UintToBools(uint64(a), 16), UintToBools(uint64(b), 16)...)
		c := uint64(0)
		if cin {
			c = 1
		}
		in = append(in, cin)
		out := s.Eval(in)
		return BoolsToUint(out) == uint64(a)+uint64(b)+c
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractorProperty(t *testing.T) {
	nl := Subtractor(16)
	s := NewSimulator(nl)
	f := func(a, b uint16) bool {
		in := append(UintToBools(uint64(a), 16), UintToBools(uint64(b), 16)...)
		out := s.Eval(in)
		diff := uint16(BoolsToUint(out[:16]))
		borrow := out[16]
		return diff == a-b && borrow == (a < b)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestComparatorProperty(t *testing.T) {
	nl := Comparator(12)
	s := NewSimulator(nl)
	f := func(aRaw, bRaw uint16) bool {
		a, b := uint64(aRaw)&0xfff, uint64(bRaw)&0xfff
		in := append(UintToBools(a, 12), UintToBools(b, 12)...)
		out := s.Eval(in)
		return out[0] == (a == b) && out[1] == (a < b)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplierExhaustive4(t *testing.T) {
	nl := Multiplier(4)
	s := NewSimulator(nl)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			in := append(UintToBools(a, 4), UintToBools(b, 4)...)
			got := BoolsToUint(s.Eval(in))
			if got != a*b {
				t.Fatalf("mul4(%d,%d) = %d, want %d", a, b, got, a*b)
			}
		}
	}
}

func TestPopCountProperty(t *testing.T) {
	nl := PopCount(16)
	s := NewSimulator(nl)
	f := func(x uint16) bool {
		got := BoolsToUint(s.Eval(UintToBools(uint64(x), 16)))
		want := uint64(0)
		for v := x; v != 0; v &= v - 1 {
			want++
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestParityProperty(t *testing.T) {
	nl := Parity(32)
	s := NewSimulator(nl)
	f := func(x uint32) bool {
		out := s.Eval(UintToBools(uint64(x), 32))
		want := false
		for v := x; v != 0; v &= v - 1 {
			want = !want
		}
		return out[0] == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxTreeExhaustive(t *testing.T) {
	nl := MuxTree(3) // 8:1
	s := NewSimulator(nl)
	for d := uint64(0); d < 256; d += 37 {
		for sel := uint64(0); sel < 8; sel++ {
			in := append(UintToBools(d, 8), UintToBools(sel, 3)...)
			out := s.Eval(in)
			want := d&(1<<sel) != 0
			if out[0] != want {
				t.Fatalf("mux8(d=%08b, sel=%d) = %v, want %v", d, sel, out[0], want)
			}
		}
	}
}

func TestPriorityEncoderExhaustive(t *testing.T) {
	nl := PriorityEncoder(8)
	s := NewSimulator(nl)
	for x := uint64(0); x < 256; x++ {
		out := s.Eval(UintToBools(x, 8))
		idx := BoolsToUint(out[:3])
		valid := out[3]
		if x == 0 {
			if valid {
				t.Fatal("prienc(0) reports valid")
			}
			continue
		}
		want := uint64(0)
		for i := 7; i >= 0; i-- {
			if x&(1<<uint(i)) != 0 {
				want = uint64(i)
				break
			}
		}
		if !valid || idx != want {
			t.Fatalf("prienc(%08b) = (%d,%v), want (%d,true)", x, idx, valid, want)
		}
	}
}

func TestBarrelShifterProperty(t *testing.T) {
	nl := BarrelShifter(16)
	s := NewSimulator(nl)
	f := func(x uint16, shRaw uint8) bool {
		sh := uint(shRaw % 16)
		in := append(UintToBools(uint64(x), 16), UintToBools(uint64(sh), 4)...)
		got := uint16(BoolsToUint(s.Eval(in)))
		want := x<<sh | x>>(16-sh)
		if sh == 0 {
			want = x
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestALUProperty(t *testing.T) {
	nl := ALU(8)
	s := NewSimulator(nl)
	f := func(a, b, opRaw uint8) bool {
		op := uint64(opRaw % 4)
		in := append(UintToBools(uint64(a), 8), UintToBools(uint64(b), 8)...)
		in = append(in, UintToBools(op, 2)...)
		got := uint8(BoolsToUint(s.Eval(in)))
		var want uint8
		switch op {
		case 0:
			want = a & b
		case 1:
			want = a | b
		case 2:
			want = a ^ b
		case 3:
			want = a + b
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestGrayEncoderProperty(t *testing.T) {
	nl := GrayEncoder(8)
	s := NewSimulator(nl)
	f := func(x uint8) bool {
		got := uint8(BoolsToUint(s.Eval(UintToBools(uint64(x), 8))))
		return got == x^(x>>1)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// --- sequential circuits ---

func TestCounterCounts(t *testing.T) {
	nl := Counter(8)
	s := NewSimulator(nl)
	for i := 0; i < 300; i++ {
		out := s.Step([]bool{true})
		if got := BoolsToUint(out); got != uint64(i%256) {
			t.Fatalf("counter cycle %d = %d, want %d", i, got, i%256)
		}
	}
}

func TestCounterEnable(t *testing.T) {
	nl := Counter(4)
	s := NewSimulator(nl)
	s.Step([]bool{true})  // -> 1
	s.Step([]bool{false}) // hold
	out := s.Step([]bool{false})
	if got := BoolsToUint(out); got != 1 {
		t.Fatalf("counter with en=0 moved: %d", got)
	}
}

func TestLFSRMaximalLength(t *testing.T) {
	// x^16 + x^14 + x^13 + x^11 + 1 is a maximal-length polynomial: with
	// taps {15,13,12,10} the 16-bit Fibonacci LFSR has period 2^16-1.
	nl := LFSR(16, []int{15, 13, 12, 10})
	s := NewSimulator(nl)
	seen := make(map[uint64]bool)
	state := BoolsToUint(s.Eval([]bool{true})[:16])
	start := state
	period := 0
	for {
		s.Step([]bool{true})
		state = BoolsToUint(s.Eval([]bool{true})[:16])
		period++
		if state == start {
			break
		}
		if seen[state] {
			t.Fatalf("LFSR revisited state %x before returning to start", state)
		}
		seen[state] = true
		if period > 1<<16 {
			t.Fatal("LFSR period exceeds 2^16")
		}
	}
	if period != 1<<16-1 {
		t.Fatalf("LFSR period = %d, want %d", period, 1<<16-1)
	}
}

func TestCRCMatchesSoftware(t *testing.T) {
	// Serial CRC-8 (poly 0x07) over a byte stream, MSB first, must match a
	// software bitwise implementation.
	nl := CRC(8, 0x07)
	s := NewSimulator(nl)
	data := []byte{0x31, 0x32, 0x33, 0xff, 0x00, 0xa5}
	var sw uint8
	for _, by := range data {
		for bit := 7; bit >= 0; bit-- {
			din := by&(1<<uint(bit)) != 0
			s.Step([]bool{din})
			// software: shift left, xor poly when (msb ^ din) was set
			fb := (sw&0x80 != 0) != din
			sw <<= 1
			if fb {
				sw ^= 0x07
			}
		}
	}
	hw := uint8(BoolsToUint(s.Eval([]bool{false})))
	if hw != sw {
		t.Fatalf("CRC hw=%02x sw=%02x", hw, sw)
	}
}

func TestAccumulator(t *testing.T) {
	nl := Accumulator(16)
	s := NewSimulator(nl)
	var want uint16
	vals := []uint16{5, 1000, 65535, 3, 12345}
	for _, v := range vals {
		in := append([]bool{true}, UintToBools(uint64(v), 16)...)
		s.Step(in)
		want += v
	}
	got := uint16(BoolsToUint(s.Eval(append([]bool{false}, UintToBools(0, 16)...))))
	if got != want {
		t.Fatalf("accumulator = %d, want %d", got, want)
	}
}

func TestShiftRegister(t *testing.T) {
	nl := ShiftRegister(8)
	s := NewSimulator(nl)
	pattern := []bool{true, false, true, true, false, false, true, false}
	for _, b := range pattern {
		s.Step([]bool{b})
	}
	out := s.Eval([]bool{false})
	// After 8 shifts, q[7] holds the first bit shifted in.
	for i := 0; i < 8; i++ {
		if out[7-i] != pattern[i] {
			t.Fatalf("shift register content wrong at bit %d: %v", i, out)
		}
	}
}

func TestStateSaveRestore(t *testing.T) {
	// The observability/controllability requirement from the paper: saving
	// DFF state and restoring it must resume the computation exactly.
	nl := Counter(8)
	s := NewSimulator(nl)
	for i := 0; i < 37; i++ {
		s.Step([]bool{true})
	}
	saved := s.State()
	// Run ahead, then restore.
	for i := 0; i < 11; i++ {
		s.Step([]bool{true})
	}
	s.SetState(saved)
	got := BoolsToUint(s.Eval([]bool{false}))
	if got != 37 {
		t.Fatalf("restored counter = %d, want 37", got)
	}
}

func TestSetStateWrongLengthPanics(t *testing.T) {
	s := NewSimulator(Counter(4))
	defer func() {
		if recover() == nil {
			t.Fatal("SetState with wrong length did not panic")
		}
	}()
	s.SetState([]bool{true})
}

func TestEvalWrongInputCountPanics(t *testing.T) {
	s := NewSimulator(Adder(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong input count did not panic")
		}
	}()
	s.Eval([]bool{true})
}

func TestRunSequence(t *testing.T) {
	s := NewSimulator(Counter(4))
	seq := [][]bool{{true}, {true}, {true}}
	outs := s.Run(seq)
	if len(outs) != 3 || BoolsToUint(outs[2]) != 2 {
		t.Fatalf("Run outputs wrong: %v", outs)
	}
}

func TestRegistryAllBuild(t *testing.T) {
	for name, gen := range Registry() {
		nl := gen()
		if nl == nil || len(nl.Nodes) == 0 {
			t.Fatalf("registry circuit %q is empty", name)
		}
		if nl.NumInputs() == 0 && nl.NumDFFs() == 0 {
			t.Fatalf("registry circuit %q has no inputs", name)
		}
		if len(nl.Outputs) == 0 {
			t.Fatalf("registry circuit %q has no outputs", name)
		}
	}
}

func TestBoolsUintRoundTrip(t *testing.T) {
	f := func(v uint64, wRaw uint8) bool {
		w := int(wRaw%64) + 1
		masked := v & (1<<uint(w) - 1)
		return BoolsToUint(UintToBools(masked, w)) == masked
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateMul8(b *testing.B) {
	nl := Multiplier(8)
	s := NewSimulator(nl)
	in := append(UintToBools(0xa5, 8), UintToBools(0x3c, 8)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(in)
	}
}
