package compile

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/netlist"
)

// compiled is one strip compile as the flow left it: the artifact, and
// the per-sink hop counts its router kept, copied before the flow's next
// compile overwrites them.
type compiled struct {
	c    *Circuit
	hops []int32
}

// sameArtifact fails t unless got and want are the same compile: the
// bitstream's bytes, the clock period, every number the stages reported
// and every sink's hop count.
func sameArtifact(t *testing.T, when string, got, want compiled) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.c.BS.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.c.BS.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	name := want.c.Name
	switch {
	case !bytes.Equal(g.Bytes(), w.Bytes()):
		t.Errorf("%s, %s: bitstream differs from a compile on a new flow", when, name)
	case got.c.ClockPeriod != want.c.ClockPeriod:
		t.Errorf("%s, %s: clock period %v, on a new flow %v", when, name, got.c.ClockPeriod, want.c.ClockPeriod)
	case stageNumbers(got.c) != stageNumbers(want.c):
		t.Errorf("%s, %s: stage numbers %v, on a new flow %v", when, name, stageNumbers(got.c), stageNumbers(want.c))
	case !slices.Equal(got.hops, want.hops):
		t.Errorf("%s, %s: sink hop counts differ from a compile on a new flow", when, name)
	}
}

// stageNumbers is what a Circuit keeps of its stages' results.
func stageNumbers(c *Circuit) [8]int {
	return [8]int{c.Depth, c.Wirelength, c.Conns, c.Tracks, c.MaxUse, c.Iterations, c.Moves, c.Pops}
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
	strip := func(f *flow, nl *netlist.Netlist) compiled {
		c, err := f.compileStrip(nl, 16, 12, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		return compiled{c, slices.Clone(f.router.Last().SinkHops)}
	}
	fresh := map[string]compiled{}
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
		taken[i] = takeFlow()
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
	giveFlow(taken[0])
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a compile still waits with a flow given back")
	}
	for _, f := range taken[1:] {
		giveFlow(f)
	}
}
