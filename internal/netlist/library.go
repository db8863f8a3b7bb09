package netlist

import "sync"

// The circuit library: every registry circuit, built at most once per
// process. A Netlist is immutable, so one instance serves every job,
// board and goroutine that names it — and because a registry name
// always yields the same instance, "a name identifies content" (what
// compile.CacheKey relies on) holds by construction for the library.

// libEntry is one library circuit. The netlist is generated on first
// use, under once, so a process pays only for the circuits it touches
// and concurrent first uses agree on one instance.
type libEntry struct {
	gen  func() *Netlist
	once sync.Once
	nl   *Netlist
}

func (e *libEntry) netlist() *Netlist {
	e.once.Do(func() { e.nl = e.gen() })
	return e.nl
}

// generators names every library circuit at its standard size.
var generators = map[string]func() *Netlist{
	"adder8":       func() *Netlist { return Adder(8) },
	"adder16":      func() *Netlist { return Adder(16) },
	"adder32":      func() *Netlist { return Adder(32) },
	"sub8":         func() *Netlist { return Subtractor(8) },
	"sub16":        func() *Netlist { return Subtractor(16) },
	"cmp8":         func() *Netlist { return Comparator(8) },
	"cmp16":        func() *Netlist { return Comparator(16) },
	"mul4":         func() *Netlist { return Multiplier(4) },
	"mul8":         func() *Netlist { return Multiplier(8) },
	"popcount16":   func() *Netlist { return PopCount(16) },
	"popcount32":   func() *Netlist { return PopCount(32) },
	"parity16":     func() *Netlist { return Parity(16) },
	"parity32":     func() *Netlist { return Parity(32) },
	"mux16":        func() *Netlist { return MuxTree(4) },
	"prienc8":      func() *Netlist { return PriorityEncoder(8) },
	"rotl8":        func() *Netlist { return BarrelShifter(8) },
	"rotl16":       func() *Netlist { return BarrelShifter(16) },
	"alu8":         func() *Netlist { return ALU(8) },
	"alu16":        func() *Netlist { return ALU(16) },
	"gray8":        func() *Netlist { return GrayEncoder(8) },
	"counter8":     func() *Netlist { return Counter(8) },
	"counter16":    func() *Netlist { return Counter(16) },
	"lfsr16":       func() *Netlist { return LFSR(16, []int{15, 13, 12, 10}) },
	"crc8":         func() *Netlist { return CRC(8, 0x07) },
	"crc16":        func() *Netlist { return CRC(16, 0x8005) },
	"acc8":         func() *Netlist { return Accumulator(8) },
	"acc16":        func() *Netlist { return Accumulator(16) },
	"shreg16":      func() *Netlist { return ShiftRegister(16) },
	"cla16":        func() *Netlist { return CLAAdder(16) },
	"cla32":        func() *Netlist { return CLAAdder(32) },
	"csel16":       func() *Netlist { return CarrySelectAdder(16, 4) },
	"absdiff8":     func() *Netlist { return AbsDiff(8) },
	"minmax8":      func() *Netlist { return MinMax(8) },
	"clz16":        func() *Netlist { return CLZ(16) },
	"hamming74enc": Hamming74Encoder,
	"hamming74dec": Hamming74Decoder,
	"sevenseg":     SevenSeg,
	"sort4x4":      func() *Netlist { return SortNet4(4) },
	"johnson8":     func() *Netlist { return JohnsonCounter(8) },
	"graycnt8":     func() *Netlist { return GrayCounter(8) },
	"seqdet1011":   func() *Netlist { return SeqDetector([]bool{true, false, true, true}) },
	"pwm8":         func() *Netlist { return PWM(8) },
	"traffic":      TrafficLight,
	"uarttx":       UARTTx,
	"div8":         func() *Netlist { return Divider(8) },
	"div16":        func() *Netlist { return Divider(16) },
	"bintobcd8":    BinToBCD8,
}

// library is filled from generators during package initialization and
// read-only afterwards; only the entries mutate, each behind its own
// Once.
var library = func() map[string]*libEntry {
	lib := make(map[string]*libEntry, len(generators))
	for name, gen := range generators {
		lib[name] = &libEntry{gen: gen}
	}
	return lib
}()

// MustLookup returns the shared instance of the named library circuit,
// building it on first use. The result must not be modified. An unknown
// name panics: callers either fix the name in the source or have
// checked it with Known.
func MustLookup(name string) *Netlist {
	e, ok := library[name]
	if !ok {
		panic("netlist: circuit " + name + " not in library")
	}
	return e.netlist()
}

// Known reports whether name is a library circuit, without building it.
func Known(name string) bool {
	_, ok := library[name]
	return ok
}

// Registry maps every library circuit name to a function returning its
// shared instance (see MustLookup), for the CLI tools and anything that
// walks the whole library. The map is the caller's; the netlists are
// not.
func Registry() map[string]func() *Netlist {
	reg := make(map[string]func() *Netlist, len(library))
	for name, e := range library {
		reg[name] = e.netlist
	}
	return reg
}
