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

// library merges the three generator tiers. It is filled during package
// initialization and read-only afterwards; only the entries mutate, each
// behind its own Once.
var library = func() map[string]*libEntry {
	lib := map[string]*libEntry{}
	for _, tier := range []map[string]func() *Netlist{baseGenerators, Registry2(), extraGenerators} {
		for name, gen := range tier {
			lib[name] = &libEntry{gen: gen}
		}
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
