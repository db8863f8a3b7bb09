package flat_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/flat"
)

// TestZeroedClearsAndKeepsArray dirties an array, then asks Zeroed for
// lengths within and beyond it: every element comes back zero, an array
// large enough is kept, and keeping it allocates nothing.
func TestEmptiedClearsAndKeepsArray(t *testing.T) {
	s := []int{1, 2, 3, 4}
	backing := s[:cap(s)]
	got := flat.Emptied(s)
	if len(got) != 0 || cap(got) != cap(s) || &got[:1][0] != &s[0] {
		t.Fatalf("Emptied returned length %d over a different array (cap %d of %d)", len(got), cap(got), cap(s))
	}
	if i := slices.IndexFunc(backing, func(v int) bool { return v != 0 }); i >= 0 {
		t.Fatalf("Emptied left element %d = %d", i, backing[i])
	}
}

func TestZeroedClearsAndKeepsArray(t *testing.T) {
	s := flat.Zeroed([]int(nil), 16)
	for _, n := range []int{16, 5, 0, 12, 16} {
		for i := range s[:cap(s)] {
			s[:cap(s)][i] = i + 1
		}
		before := &s[:1][0]
		s = flat.Zeroed(s, n)
		if len(s) != n {
			t.Fatalf("Zeroed(_, %d) has length %d", n, len(s))
		}
		if i := slices.IndexFunc(s, func(v int) bool { return v != 0 }); i >= 0 {
			t.Fatalf("Zeroed(_, %d)[%d] = %d, want 0", n, i, s[i])
		}
		if &s[:1][0] != before {
			t.Fatalf("Zeroed(_, %d) left an array of %d elements", n, cap(s))
		}
	}
	if got := flat.Zeroed(s, 40); len(got) != 40 || slices.ContainsFunc(got, func(v int) bool { return v != 0 }) {
		t.Fatalf("Zeroed grown to 40: %v", got)
	}
	if a := testing.AllocsPerRun(100, func() { s = flat.Zeroed(s, 16) }); a != 0 {
		t.Fatalf("Zeroed within capacity allocates %v times, want 0", a)
	}
}

// TestCarveHandsOutEachElementOnce carves cuts of mixed sizes, some
// larger than a chunk: no element is handed out twice, each cut's
// capacity is its length, and an append to a cut leaves its neighbour
// as it was.
func TestCarveHandsOutEachElementOnce(t *testing.T) {
	var buf []int
	seen := map[*int]bool{}
	var cuts [][]int
	for i, n := range []int{1, 3, 2, 1, 9, 1, 4, 4, 1, 2} {
		c := flat.Carve(&buf, n, 4)
		if len(c) != n || cap(c) != n {
			t.Fatalf("cut %d: len %d cap %d, want both %d", i, len(c), cap(c), n)
		}
		for k := range c {
			if seen[&c[k]] {
				t.Fatalf("cut %d hands out element %d again", i, k)
			}
			seen[&c[k]] = true
			c[k] = i
		}
		cuts = append(cuts, c)
	}
	for i, c := range cuts {
		_ = append(c, -1)
		for j, d := range cuts {
			if slices.Contains(d, -1) {
				t.Fatalf("an append to cut %d reached cut %d", i, j)
			}
		}
	}
}

// TestRewindKeepsLastJobsArray carves a job of n records one at a time,
// rewinds, and carves the next job of n: the rewound array is the one
// that held the whole job, and the second job allocates nothing.
func TestRewindKeepsLastJobsArray(t *testing.T) {
	const n, chunk = 20, 8
	var buf []int
	for range n {
		flat.Carve(&buf, 1, chunk)
	}
	if cap(buf) >= n {
		t.Fatalf("a job of %d carved from one array of %d; the test needs it spread", n, cap(buf))
	}
	buf = flat.Rewind(buf, n)
	if len(buf) != 0 || cap(buf) < n {
		t.Fatalf("Rewind(_, %d): len %d cap %d", n, len(buf), cap(buf))
	}
	first := &buf[:1][0]
	for range n {
		flat.Carve(&buf, 1, chunk)
	}
	buf = flat.Rewind(buf, n)
	if &buf[:1][0] != first {
		t.Fatal("Rewind replaced the array that held the last job")
	}
	a := testing.AllocsPerRun(10, func() {
		buf = flat.Rewind(buf, n)
		for range n {
			flat.Carve(&buf, 1, chunk)
		}
	})
	if a != 0 {
		t.Fatalf("a rewound job of %d records allocates %v times, want 0", n, a)
	}
}

// TestFanOutRaisesFirstPanic panics two calls of a fan-out: every call
// still runs, and the caller sees the panic of the least index.
func TestFanOutRaisesFirstPanic(t *testing.T) {
	ran := make([]bool, 6)
	defer func() {
		if r := recover(); r != 2 {
			t.Fatalf("FanOut raised %v, want the panic of call 2", r)
		}
		if slices.Contains(ran, false) {
			t.Fatalf("calls ran: %v; a panic stopped the others", ran)
		}
	}()
	flat.FanOut(len(ran), 3, func(k int) {
		ran[k] = true
		if k == 2 || k == 4 {
			panic(k)
		}
	})
	t.Fatal("FanOut returned normally over panicking calls")
}

// TestMapOrderAndFirstIndexError reads Map's results in index order, and
// of two failing calls the error of the lower index, whichever finishes
// first; serially too.
func TestMapOrderAndFirstIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		vals, err := flat.Map(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d", workers, i, v)
			}
		}
		err13 := errors.New("err@13")
		err70 := errors.New("err@70")
		_, err = flat.Map(100, workers, func(i int) (int, error) {
			switch i {
			case 13:
				return 0, err13
			case 70:
				return 0, err70
			}
			return i, nil
		})
		if !errors.Is(err, err13) {
			t.Fatalf("workers=%d: want err@13, got %v", workers, err)
		}
	}
}

// edge is one dependency of a test graph: f must come before t.
type edge struct{ f, t int }

// sortEdges runs o over n nodes and edges, appending the order to dst.
func sortEdges(o *flat.Order[int], n int, edges []edge, dst []int) []int {
	o.Reset(n)
	for _, e := range edges {
		o.Count(e.f, e.t)
	}
	o.Counted()
	for _, e := range edges {
		o.Place(e.f, e.t)
	}
	return o.Sort(dst)
}

// kahnCSR is the sort as the netlist check wrote it before Order: a CSR
// successor list filled through a separate fill array, and the order as
// its own queue. It is the oracle for Order's exact sequence.
func kahnCSR(n int, edges []edge) []int {
	indeg := make([]int, n)
	start := make([]int, n+1)
	for _, e := range edges {
		indeg[e.t]++
		start[e.f+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	succs := make([]int, start[n])
	fill := append([]int(nil), start[:n]...)
	for _, e := range edges {
		succs[fill[e.f]] = e.t
		fill[e.f]++
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, succ := range succs[start[id]:start[id+1]] {
			indeg[succ]--
			if indeg[succ] == 0 {
				order = append(order, succ)
			}
		}
	}
	return order
}

// downstreamOfCycle returns, by brute-force reachability, which nodes
// lie on a cycle or after one: the nodes no topological order can hold.
func downstreamOfCycle(n int, edges []edge) []bool {
	reach := make([][]bool, n) // reach[u][v]: a path of one edge or more from u to v
	for u := range reach {
		reach[u] = make([]bool, n)
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range edges {
				if e.f == x && !reach[u][e.t] {
					reach[u][e.t] = true
					stack = append(stack, e.t)
				}
			}
		}
	}
	out := make([]bool, n)
	for u := range n {
		if !reach[u][u] {
			continue
		}
		out[u] = true
		for v := range n {
			out[v] = out[v] || reach[u][v]
		}
	}
	return out
}

// randomGraph draws a graph of n nodes: mostly forward edges, so most
// nodes are orderable, with duplicates, self-loops and back edges mixed
// in when loops is set.
func randomGraph(r *rand.Rand, n int, loops bool) []edge {
	if n == 0 {
		return nil
	}
	edges := make([]edge, 0, 2*n)
	for range r.IntN(2*n + 1) {
		f, t := r.IntN(n), r.IntN(n)
		if !loops && f >= t {
			if f == t {
				continue
			}
			f, t = t, f
		}
		edges = append(edges, edge{f, t})
		if r.IntN(8) == 0 {
			edges = append(edges, edge{f, t}) // a doubled edge counts twice
		}
	}
	return edges
}

// TestOrderMatchesOracle sorts random graphs, acyclic and with loops,
// from no nodes up: every edge's source comes before its target, the
// nodes left out are exactly those on or after a cycle, and the sequence
// is the CSR sort's, node for node.
func TestOrderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var o flat.Order[int]
	cases := [][]edge{
		nil,
		{{0, 0}},
		{{0, 1}, {0, 1}, {1, 2}},
		{{2, 1}, {1, 0}, {0, 2}, {2, 3}},
	}
	sizes := []int{0, 1, 3, 4}
	for i := range 400 {
		n := i % 24
		cases = append(cases, randomGraph(r, n, i%3 != 0))
		sizes = append(sizes, n)
	}
	for c, edges := range cases {
		n := sizes[c]
		prefix := []int{-7, -8}
		got := sortEdges(&o, n, edges, prefix)
		if !slices.Equal(got[:2], []int{-7, -8}) {
			t.Fatalf("case %d: Sort rewrote dst's elements: %v", c, got[:2])
		}
		got = got[2:]
		if want := kahnCSR(n, edges); !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d, edges %v): order %v, want %v", c, n, edges, got, want)
		}
		pos := make([]int, n)
		for i := range pos {
			pos[i] = -1
		}
		for k, v := range got {
			if pos[v] >= 0 {
				t.Fatalf("case %d: node %d ordered twice", c, v)
			}
			pos[v] = k
		}
		for _, e := range edges {
			if pos[e.t] >= 0 && (pos[e.f] < 0 || pos[e.f] >= pos[e.t]) {
				t.Fatalf("case %d: edge %d->%d ordered at %d, %d", c, e.f, e.t, pos[e.f], pos[e.t])
			}
		}
		bad := downstreamOfCycle(n, edges)
		for v := range n {
			if (pos[v] < 0) != bad[v] {
				t.Fatalf("case %d: node %d ordered %v, but on or after a cycle %v", c, v, pos[v] >= 0, bad[v])
			}
		}
	}
}

// TestOrderReuseAllocatesNothing sorts a graph once to grow the working
// set, then again and again into the same order array: nothing is
// allocated, whether the graph is the same size or smaller.
func TestOrderReuseAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	big, small := randomGraph(r, 64, true), randomGraph(r, 20, false)
	var o flat.Order[int]
	dst := sortEdges(&o, 64, big, nil)
	a := testing.AllocsPerRun(20, func() {
		dst = sortEdges(&o, 64, big, dst[:0])
		dst = sortEdges(&o, 20, small, dst[:0])
	})
	if a != 0 {
		t.Fatalf("a reused Order allocates %v times per two sorts, want 0", a)
	}
}
