package netlist

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCLAAdderProperty(t *testing.T) {
	s := NewSimulator(CLAAdder(16))
	f := func(a, b uint16, cin bool) bool {
		in := append(UintToBools(uint64(a), 16), UintToBools(uint64(b), 16)...)
		in = append(in, cin)
		c := uint64(0)
		if cin {
			c = 1
		}
		return BoolsToUint(s.Eval(in)) == uint64(a)+uint64(b)+c
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCLAShallowerThanRipple(t *testing.T) {
	if CLAAdder(32).Depth() >= Adder(32).Depth() {
		t.Fatalf("CLA depth %d not shallower than ripple %d", CLAAdder(32).Depth(), Adder(32).Depth())
	}
}

func TestCarrySelectAdderProperty(t *testing.T) {
	s := NewSimulator(CarrySelectAdder(16, 4))
	f := func(a, b uint16, cin bool) bool {
		in := append(UintToBools(uint64(a), 16), UintToBools(uint64(b), 16)...)
		in = append(in, cin)
		c := uint64(0)
		if cin {
			c = 1
		}
		return BoolsToUint(s.Eval(in)) == uint64(a)+uint64(b)+c
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCarrySelectOddBlocks(t *testing.T) {
	// Width not divisible by the block size exercises the tail block.
	s := NewSimulator(CarrySelectAdder(10, 3))
	for a := uint64(0); a < 1024; a += 37 {
		for b := uint64(0); b < 1024; b += 53 {
			in := append(UintToBools(a, 10), UintToBools(b, 10)...)
			in = append(in, false)
			if got := BoolsToUint(s.Eval(in)); got != a+b {
				t.Fatalf("csel10(%d,%d) = %d", a, b, got)
			}
		}
	}
}

func TestAbsDiffProperty(t *testing.T) {
	s := NewSimulator(AbsDiff(8))
	f := func(a, b uint8) bool {
		in := append(UintToBools(uint64(a), 8), UintToBools(uint64(b), 8)...)
		got := uint8(BoolsToUint(s.Eval(in)))
		want := a - b
		if b > a {
			want = b - a
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxProperty(t *testing.T) {
	s := NewSimulator(MinMax(8))
	f := func(a, b uint8) bool {
		in := append(UintToBools(uint64(a), 8), UintToBools(uint64(b), 8)...)
		out := s.Eval(in)
		mn := uint8(BoolsToUint(out[:8]))
		mx := uint8(BoolsToUint(out[8:]))
		wantMn, wantMx := a, b
		if b < a {
			wantMn, wantMx = b, a
		}
		return mn == wantMn && mx == wantMx
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCLZExhaustive(t *testing.T) {
	s := NewSimulator(CLZ(16))
	for x := uint64(0); x < 1<<16; x += 7 {
		got := BoolsToUint(s.Eval(UintToBools(x, 16)))
		want := uint64(bits.LeadingZeros16(uint16(x)))
		if got != want {
			t.Fatalf("clz(%#x) = %d, want %d", x, got, want)
		}
	}
	// Edge cases not hit by the stride.
	for _, x := range []uint64{0, 1, 1 << 15, 0xffff} {
		got := BoolsToUint(s.Eval(UintToBools(x, 16)))
		if got != uint64(bits.LeadingZeros16(uint16(x))) {
			t.Fatalf("clz(%#x) = %d", x, got)
		}
	}
}

// hammingEncode is the software golden model.
func hammingEncode(d uint8) uint8 {
	d1, d2, d3, d4 := d&1, (d>>1)&1, (d>>2)&1, (d>>3)&1
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p4 := d2 ^ d3 ^ d4
	return p1 | p2<<1 | d1<<2 | p4<<3 | d2<<4 | d3<<5 | d4<<6
}

func TestHammingEncoderExhaustive(t *testing.T) {
	s := NewSimulator(Hamming74Encoder())
	for d := uint64(0); d < 16; d++ {
		got := BoolsToUint(s.Eval(UintToBools(d, 4)))
		if got != uint64(hammingEncode(uint8(d))) {
			t.Fatalf("encode(%d) = %07b, want %07b", d, got, hammingEncode(uint8(d)))
		}
	}
}

func TestHammingRoundTripAndCorrection(t *testing.T) {
	dec := NewSimulator(Hamming74Decoder())
	for d := uint64(0); d < 16; d++ {
		code := uint64(hammingEncode(uint8(d)))
		// Clean word decodes with no error flag.
		out := dec.Eval(UintToBools(code, 7))
		if BoolsToUint(out[:4]) != d || out[4] {
			t.Fatalf("clean decode(%d) = %d err=%v", d, BoolsToUint(out[:4]), out[4])
		}
		// Every single-bit error is corrected and flagged.
		for bit := 0; bit < 7; bit++ {
			corrupted := code ^ (1 << uint(bit))
			out := dec.Eval(UintToBools(corrupted, 7))
			if BoolsToUint(out[:4]) != d {
				t.Fatalf("data %d, flip bit %d: decoded %d", d, bit, BoolsToUint(out[:4]))
			}
			if !out[4] {
				t.Fatalf("data %d, flip bit %d: error not flagged", d, bit)
			}
		}
	}
}

func TestSevenSegExhaustive(t *testing.T) {
	patterns := [16]uint8{
		0x3F, 0x06, 0x5B, 0x4F, 0x66, 0x6D, 0x7D, 0x07,
		0x7F, 0x6F, 0x77, 0x7C, 0x39, 0x5E, 0x79, 0x71,
	}
	s := NewSimulator(SevenSeg())
	for v := uint64(0); v < 16; v++ {
		got := BoolsToUint(s.Eval(UintToBools(v, 4)))
		if got != uint64(patterns[v]) {
			t.Fatalf("sevenseg(%x) = %07b, want %07b", v, got, patterns[v])
		}
	}
}

func TestSortNet4Property(t *testing.T) {
	s := NewSimulator(SortNet4(4))
	f := func(raw [4]uint8) bool {
		var in []bool
		vals := make([]int, 4)
		for i, r := range raw {
			vals[i] = int(r % 16)
			in = append(in, UintToBools(uint64(vals[i]), 4)...)
		}
		out := s.Eval(in)
		sort.Ints(vals)
		for i := 0; i < 4; i++ {
			got := int(BoolsToUint(out[i*4 : (i+1)*4]))
			if got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestJohnsonCounterSequence(t *testing.T) {
	s := NewSimulator(JohnsonCounter(4))
	want := []uint64{0b0000, 0b0001, 0b0011, 0b0111, 0b1111, 0b1110, 0b1100, 0b1000, 0b0000}
	for i, w := range want {
		out := s.Step([]bool{true})
		if got := BoolsToUint(out); got != w {
			t.Fatalf("johnson step %d = %04b, want %04b", i, got, w)
		}
	}
}

func TestJohnsonHoldsWhenDisabled(t *testing.T) {
	s := NewSimulator(JohnsonCounter(4))
	s.Step([]bool{true})
	s.Step([]bool{true}) // state 0b0011 next
	a := BoolsToUint(s.Step([]bool{false}))
	b := BoolsToUint(s.Step([]bool{false}))
	if a != b {
		t.Fatalf("disabled johnson moved: %04b -> %04b", a, b)
	}
}

func TestGrayCounterAdjacency(t *testing.T) {
	// Consecutive Gray outputs differ in exactly one bit, over a full period.
	s := NewSimulator(GrayCounter(4))
	prev := BoolsToUint(s.Step([]bool{true}))
	for i := 0; i < 16; i++ {
		cur := BoolsToUint(s.Step([]bool{true}))
		if bits.OnesCount64(prev^cur) != 1 {
			t.Fatalf("gray step %d: %04b -> %04b differ in %d bits", i, prev, cur, bits.OnesCount64(prev^cur))
		}
		prev = cur
	}
}

func TestSeqDetector(t *testing.T) {
	pattern := []bool{true, false, true, true} // 1011
	s := NewSimulator(SeqDetector(pattern))
	stream := []int{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0}
	// hit is a Moore output: high on the cycle AFTER the pattern completed.
	var hits []int
	for i, bit := range stream {
		s.Step([]bool{bit == 1})
		out := s.Eval([]bool{false})
		if out[0] {
			hits = append(hits, i)
		}
	}
	// Pattern 1011 completes at stream indices 3, 6 (overlap: the final
	// 1 of the first hit starts the next match) and 10.
	want := []int{3, 6, 10}
	if len(hits) != len(want) {
		t.Fatalf("hits at %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits at %v, want %v", hits, want)
		}
	}
}

func TestSeqDetectorNoFalseHitDuringWarmup(t *testing.T) {
	// Detector for 00 must not fire before two real bits arrived, even
	// though the shift register initializes to zeros.
	s := NewSimulator(SeqDetector([]bool{false, false}))
	s.Step([]bool{false})
	if s.Eval([]bool{false})[0] {
		t.Fatal("fired after a single bit")
	}
	s.Step([]bool{false})
	if !s.Eval([]bool{false})[0] {
		t.Fatal("did not fire after 00")
	}
}

func TestPWMDutyCycle(t *testing.T) {
	s := NewSimulator(PWM(8))
	for _, duty := range []uint64{0, 1, 64, 128, 255} {
		s.Reset()
		high := 0
		in := UintToBools(duty, 8)
		for c := 0; c < 256; c++ {
			out := s.Step(in)
			if out[0] {
				high++
			}
		}
		if high != int(duty) {
			t.Fatalf("duty %d: %d/256 high", duty, high)
		}
	}
}

func TestTrafficLightCycle(t *testing.T) {
	s := NewSimulator(TrafficLight())
	// One-hot at all times; order green -> yellow -> red -> green on ticks.
	wantOrder := []int{0, 1, 2, 0, 1, 2} // index of the lit lamp
	for i, want := range wantOrder {
		out := s.Eval([]bool{false})
		lit := -1
		for k := 0; k < 3; k++ {
			if out[k] {
				if lit >= 0 {
					t.Fatalf("step %d: two lamps lit", i)
				}
				lit = k
			}
		}
		if lit != want {
			t.Fatalf("step %d: lamp %d lit, want %d", i, lit, want)
		}
		s.Step([]bool{true})
	}
	// Without ticks the state holds.
	before := s.Eval([]bool{false})
	s.Step([]bool{false})
	after := s.Eval([]bool{false})
	for k := 0; k < 3; k++ {
		if before[k] != after[k] {
			t.Fatal("state advanced without tick")
		}
	}
}

func TestUARTTxFrame(t *testing.T) {
	s := NewSimulator(UARTTx())
	mkIn := func(start bool, data uint64) []bool {
		return append([]bool{start}, UintToBools(data, 8)...)
	}
	// Idle line is high, not busy.
	out := s.Eval(mkIn(false, 0))
	if !out[0] || out[1] {
		t.Fatalf("idle line=%v busy=%v", out[0], out[1])
	}
	// Send 0xA5: expect start(0), bits 1,0,1,0,0,1,0,1 (LSB first), stop(1).
	const data = 0xA5
	s.Step(mkIn(true, data))
	var line []bool
	for i := 0; i < 10; i++ {
		out := s.Eval(mkIn(false, 0))
		if !out[1] {
			t.Fatalf("not busy at frame position %d", i)
		}
		line = append(line, out[0])
		s.Step(mkIn(false, 0))
	}
	if line[0] {
		t.Fatal("start bit not low")
	}
	for i := 0; i < 8; i++ {
		want := data&(1<<uint(i)) != 0
		if line[1+i] != want {
			t.Fatalf("data bit %d = %v, want %v (line %v)", i, line[1+i], want, line)
		}
	}
	if !line[9] {
		t.Fatal("stop bit not high")
	}
	// Back to idle.
	out = s.Eval(mkIn(false, 0))
	if !out[0] || out[1] {
		t.Fatalf("after frame: line=%v busy=%v", out[0], out[1])
	}
}

func TestUARTTxIgnoresStartWhileBusy(t *testing.T) {
	s := NewSimulator(UARTTx())
	mkIn := func(start bool, data uint64) []bool {
		return append([]bool{start}, UintToBools(data, 8)...)
	}
	s.Step(mkIn(true, 0x0F))
	// Pulse start again mid-frame with different data.
	s.Step(mkIn(true, 0xF0))
	// Collect the remaining 8 frame slots; since one step already passed
	// (start bit emitted), positions 2..9 hold data bits of 0x0F.
	var got []bool
	for i := 0; i < 9; i++ {
		out := s.Eval(mkIn(false, 0))
		got = append(got, out[0])
		s.Step(mkIn(false, 0))
	}
	// got[0..7] are the 8 data bits (frame positions 2..9).
	for i := 0; i < 8; i++ {
		want := uint8(0x0F)&(1<<uint(i)) != 0
		if got[i] != want {
			t.Fatalf("mid-frame restart corrupted data bit %d", i)
		}
	}
}

func TestRegistry2AllBuildAndMap(t *testing.T) {
	for _, name := range []string{
		"cla16", "cla32", "csel16", "absdiff8", "minmax8", "clz16", "hamming74enc", "hamming74dec",
		"sevenseg", "sort4x4", "johnson8", "graycnt8", "seqdet1011", "pwm8", "traffic", "uarttx",
	} {
		nl := MustLookup(name)
		if len(nl.Outputs) == 0 {
			t.Fatalf("%s has no outputs", name)
		}
		// And they must survive optimization unchanged in behaviour.
		checkSame(t, nl, Optimize(nl), 32, 77)
	}
}

func TestDividerExhaustive8(t *testing.T) {
	s := NewSimulator(Divider(8))
	for n := uint64(0); n < 256; n += 3 {
		for d := uint64(1); d < 256; d += 7 {
			in := append(UintToBools(n, 8), UintToBools(d, 8)...)
			out := s.Eval(in)
			q := BoolsToUint(out[:8])
			r := BoolsToUint(out[8:])
			if q != n/d || r != n%d {
				t.Fatalf("div(%d,%d) = (%d,%d), want (%d,%d)", n, d, q, r, n/d, n%d)
			}
		}
	}
}

func TestDividerProperty16(t *testing.T) {
	s := NewSimulator(Divider(16))
	f := func(n uint16, dRaw uint16) bool {
		d := dRaw
		if d == 0 {
			d = 1
		}
		in := append(UintToBools(uint64(n), 16), UintToBools(uint64(d), 16)...)
		out := s.Eval(in)
		q := uint16(BoolsToUint(out[:16]))
		r := uint16(BoolsToUint(out[16:]))
		return q == n/d && r == n%d
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDividerByZeroConvention(t *testing.T) {
	s := NewSimulator(Divider(8))
	in := append(UintToBools(123, 8), UintToBools(0, 8)...)
	out := s.Eval(in)
	if q := BoolsToUint(out[:8]); q != 255 {
		t.Fatalf("div by zero quotient %d, want 255", q)
	}
	if r := BoolsToUint(out[8:]); r != 123 {
		t.Fatalf("div by zero remainder %d, want the dividend", r)
	}
}

func TestBinToBCDExhaustive(t *testing.T) {
	s := NewSimulator(BinToBCD8())
	for v := uint64(0); v < 256; v++ {
		out := s.Eval(UintToBools(v, 8))
		ones := BoolsToUint(out[0:4])
		tens := BoolsToUint(out[4:8])
		hundreds := BoolsToUint(out[8:12])
		if ones != v%10 || tens != (v/10)%10 || hundreds != v/100 {
			t.Fatalf("bcd(%d) = %d%d%d", v, hundreds, tens, ones)
		}
	}
}
