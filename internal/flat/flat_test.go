package flat_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/flat"
)

// TestZeroedClearsAndKeepsArray dirties an array, then asks Zeroed for
// lengths within and beyond it: every element comes back zero, an array
// large enough is kept, and keeping it allocates nothing.
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
