package netlist

import "testing"

// The library hands out one instance per name, Registry's functions
// return that same instance, and no two entries share a Netlist.Name —
// the strip cache keys compiled circuits by it.
func TestLibrarySharedAndNamesUnique(t *testing.T) {
	byName := map[string]string{}
	for key, get := range Registry() {
		if !Known(key) {
			t.Fatalf("%s: in Registry but not Known", key)
		}
		nl := MustLookup(key)
		if get() != nl || MustLookup(key) != nl {
			t.Errorf("%s: Registry and MustLookup disagree on the instance", key)
		}
		if other, dup := byName[nl.Name]; dup {
			t.Errorf("entries %s and %s both build a netlist named %q", other, key, nl.Name)
		}
		byName[nl.Name] = key
	}
	if Known("nosuch") {
		t.Error("unknown name found in the library")
	}
}

// Concurrent first uses of one entry run its generator once and agree on
// the instance (in the `make race` set).
func TestLibraryEntryBuildsOnce(t *testing.T) {
	built := 0
	e := &libEntry{gen: func() *Netlist { built++; return Adder(4) }}
	const workers = 8
	got := make(chan *Netlist, workers)
	for w := 0; w < workers; w++ {
		go func() { got <- e.netlist() }()
	}
	first := <-got
	for w := 1; w < workers; w++ {
		if nl := <-got; nl != first {
			t.Error("two goroutines got different instances of one entry")
		}
	}
	if built != 1 {
		t.Errorf("generator ran %d times, want 1", built)
	}
}
