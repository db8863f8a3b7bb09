package compile

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/netlist"
)

// sameArtifact fails t unless got and want are the same compile: the
// bitstream's bytes, the clock period, the wirelength and every sink's hop
// count.
func sameArtifact(t *testing.T, when string, got, want *Circuit) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.BS.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.BS.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	switch {
	case !bytes.Equal(g.Bytes(), w.Bytes()):
		t.Errorf("%s, %s: bitstream differs from a compile on a new flow", when, want.Name)
	case got.ClockPeriod != want.ClockPeriod:
		t.Errorf("%s, %s: clock period %v, on a new flow %v", when, want.Name, got.ClockPeriod, want.ClockPeriod)
	case got.Placed.Wirelength != want.Placed.Wirelength:
		t.Errorf("%s, %s: wirelength %d, on a new flow %d", when, want.Name, got.Placed.Wirelength, want.Placed.Wirelength)
	case !slices.Equal(got.Routed.SinkHops, want.Routed.SinkHops):
		t.Errorf("%s, %s: sink hop counts differ from a compile on a new flow", when, want.Name)
	}
}

// TestRecycledFlowMatchesFresh compiles every registry circuit through one
// flow twice, largest first and then smallest first, so every stage's
// arrays are both grown and reused oversized, and holds each compile to
// the same circuit's compile on a new flow.
func TestRecycledFlowMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-library sweep")
	}
	var nls []*netlist.Netlist
	for name := range netlist.Registry() {
		nls = append(nls, netlist.MustLookup(name))
	}
	sort.Slice(nls, func(i, j int) bool {
		if a, b := len(nls[i].Nodes), len(nls[j].Nodes); a != b {
			return a > b
		}
		return nls[i].Name < nls[j].Name
	})
	strip := func(f *flow, nl *netlist.Netlist) *Circuit {
		c, err := f.compileStrip(nl, 16, 12, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		return c
	}
	fresh := map[string]*Circuit{}
	for _, nl := range nls {
		fresh[nl.Name] = strip(new(flow), nl)
	}
	f := new(flow)
	for _, order := range []string{"largest first", "smallest first"} {
		for _, nl := range nls {
			sameArtifact(t, order, strip(f, nl), fresh[nl.Name])
		}
		slices.Reverse(nls)
	}
}

// TestFlowsBoundCompiles holds the flows to their count: with every flow
// taken, a compile waits for one to come back.
func TestFlowsBoundCompiles(t *testing.T) {
	taken := make([]*flow, Flows())
	for i := range taken {
		taken[i] = flows.take()
	}
	done := make(chan error)
	go func() {
		_, err := CompileStrip(netlist.MustLookup("counter8"), 16, 12, Options{Seed: 1})
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("a compile ran with every flow taken")
	case <-time.After(50 * time.Millisecond):
	}
	flows.give(taken[0])
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a compile still waits with a flow given back")
	}
	for _, f := range taken[1:] {
		flows.give(f)
	}
}
