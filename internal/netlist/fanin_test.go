package netlist

import (
	"fmt"
	"sort"
	"testing"
)

// checkWindows fails unless every node's fanin slice is capped at its
// length, and unless appending to one node's fanins leaves every other
// node's unchanged.
func checkWindows(t *testing.T, nl *Netlist) {
	t.Helper()
	before := make([]string, len(nl.Nodes))
	for i := range nl.Nodes {
		nd := &nl.Nodes[i]
		if cap(nd.Fanin) != len(nd.Fanin) {
			t.Fatalf("%s: node %d (%v) has fanin len %d cap %d", nl.Name, i, nd.Kind, len(nd.Fanin), cap(nd.Fanin))
		}
		before[i] = fmt.Sprint(nd.Fanin)
	}
	for i := range nl.Nodes {
		_ = append(nl.Nodes[i].Fanin, NodeID(len(nl.Nodes)))
	}
	for i := range nl.Nodes {
		if got := fmt.Sprint(nl.Nodes[i].Fanin); got != before[i] {
			t.Fatalf("%s: an append to a neighbour's fanins rewrote node %d: %s, was %s", nl.Name, i, got, before[i])
		}
	}
}

// Every fanin is a capped window into its netlist's one array: every
// library circuit, a Concat of several, and Optimize's output (folded,
// and swept when folding orphaned logic).
func TestFaninWindowsAreCapped(t *testing.T) {
	var names []string
	for name := range Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	var all []*Netlist
	for _, name := range names {
		nl := MustLookup(name)
		checkWindows(t, nl)
		checkWindows(t, Optimize(nl))
		all = append(all, nl)
	}
	cat, err := Concat("all", all...)
	if err != nil {
		t.Fatal(err)
	}
	checkWindows(t, cat)
	checkWindows(t, Optimize(cat))
	checkWindows(t, Optimize(constHeavy()))
}

// constHeavy is a circuit Optimize folds and then sweeps: half its
// gates read a constant, so shared subexpressions are orphaned.
func constHeavy() *Netlist {
	b := NewBuilder("constheavy")
	in := b.InputBus("x", 8)
	one := b.Const(true)
	var outs []NodeID
	for i := 0; i+1 < len(in); i++ {
		g := b.And(in[i], in[i+1])
		outs = append(outs, b.Mux(one, b.Xor(g, in[i]), b.And(g, one)))
	}
	b.OutputBus("y", outs)
	return b.MustBuild()
}

// Building a circuit allocates per port (its name), per generator row
// and per array doubling, not per gate: mul8 has 528 gates more than
// mul4 and costs a few dozen allocations more (16 port names, 4 rows,
// a few doublings), where one fanin slice a gate cost 582 more (257 vs
// 839).
func TestBuildAllocBudget(t *testing.T) {
	mul4 := testing.AllocsPerRun(10, func() { Multiplier(4) })
	mul8 := testing.AllocsPerRun(10, func() { Multiplier(8) })
	t.Logf("mul4 %v, mul8 %v allocations", mul4, mul8)
	if mul8 > 160 {
		t.Errorf("Multiplier(8) allocates %v times, budget 160", mul8)
	}
	if mul8-mul4 > 64 {
		t.Errorf("Multiplier(8) allocates %v more than Multiplier(4), budget 64: something allocates per gate", mul8-mul4)
	}
}

func BenchmarkBuildMul8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Multiplier(8)
	}
}

func BenchmarkOptimizeMul8(b *testing.B) {
	nl := Multiplier(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(nl)
	}
}

func BenchmarkSegmentMul8(b *testing.B) {
	nl := Multiplier(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Segment(nl, 4); err != nil {
			b.Fatal(err)
		}
	}
}
