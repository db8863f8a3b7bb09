package fabric

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rng"
)

// identity is the LUT whose output is its input 0.
var identity = func() LUT {
	var table [1 << LUTInputs]bool
	for i := range table {
		table[i] = i&1 == 1
	}
	return PackLUT(table)
}()

// wantRefused requires Check, Eval and Step all to refuse d with the
// error want, and Step to latch nothing.
func wantRefused(t *testing.T, d *Device, want string) {
	t.Helper()
	before := d.ReadRegionState(d.Geometry().Bounds())
	if err := d.Check(); fmt.Sprint(err) != want {
		t.Errorf("Check() = %v, want %q", err, want)
	}
	if out, err := d.Eval(); out != nil || fmt.Sprint(err) != want {
		t.Errorf("Eval() = %v, %v, want %q", out, err, want)
	}
	if out, err := d.Step(); out != nil || fmt.Sprint(err) != want {
		t.Errorf("Step() = %v, %v, want %q", out, err, want)
	}
	if after := d.ReadRegionState(d.Geometry().Bounds()); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("a refused Step latched %v over %v", after, before)
	}
}

// A CLB reading a blank one reads unconfigured fabric; the evaluator used
// to call it a loop, "(0 of 1 CLBs ordered)".
func TestReadOfBlankCLBRefused(t *testing.T) {
	d := NewDevice(DefaultGeometry())
	d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: identity, Inputs: [LUTInputs]Source{CLBSource(1, 0)}, UseFF: true})
	wantRefused(t, d, "CLB (0,0) input 0: reads unconfigured CLB (1,0)")
}

// A CLB reading a column past the edge is refused, not a panic.
func TestReadOutsideDeviceRefused(t *testing.T) {
	d := NewDevice(DefaultGeometry())
	d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: identity, Inputs: [LUTInputs]Source{CLBSource(30, 0)}})
	wantRefused(t, d, "CLB (0,0) input 0: reads CLB (30,0) outside device 24x24/192pin")
}

// A CLB reading a pin not configured as an input is refused, where it
// used to evaluate to the pin's stale latch.
func TestReadOfNonInputPinRefused(t *testing.T) {
	d := NewDevice(DefaultGeometry())
	d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: identity, Inputs: [LUTInputs]Source{PinSource(5)}})
	d.WritePin(1, PinConfig{Mode: PinOutput, Driver: CLBSource(0, 0)})
	wantRefused(t, d, "CLB (0,0) input 0: reads pin 5 which is not configured as an input")
}

// chain configures n identity CLBs in scan order from input pin 0 to
// output pin 1, every fourth registered.
func chain(d *Device, n int) {
	rows := d.Geometry().Rows
	d.WritePin(0, PinConfig{Mode: PinInput})
	src := PinSource(0)
	for i := 0; i < n; i++ {
		d.WriteCLB(i/rows, i%rows, CLBConfig{Used: true, LUT: identity, Inputs: [LUTInputs]Source{src}, UseFF: i%4 == 3})
		src = CLBSource(i/rows, i%rows)
	}
	d.WritePin(1, PinConfig{Mode: PinOutput, Driver: src})
}

var sinkPins map[int]bool

// Step checks and evaluates the device on a working set it takes from
// the package's free list, so once one has grown a clock cycle allocates
// what it returns and nothing else: its map of output pins (10
// allocations a Step while each call made its own order and values).
func TestStepAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats escape analysis")
	}
	d := NewDevice(DefaultGeometry())
	chain(d, 32)
	d.SetPin(0, true)
	// Eight registers in the chain: the input reaches the output pin on
	// the eighth clock edge, so the ninth Step samples it.
	for i := 0; i < 9; i++ {
		out, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 8; out[1] != want || len(out) != 1 {
			t.Fatalf("Step %d = %v, want map[1:%v]", i, out, want)
		}
	}
	step := testing.AllocsPerRun(100, func() { sinkPins, _ = d.Step() })
	result := testing.AllocsPerRun(100, func() {
		res := make(map[int]bool)
		res[1] = true
		sinkPins = res
	})
	if step > result {
		t.Errorf("Step allocates %v times, its result %v", step, result)
	}
}

// cyclicTail is the brute-force count Check's loop verdict is held to:
// the nodes of graph (succ[f] lists f's dependents) that lie on a cycle
// or are reachable from one.
func cyclicTail(succ [][]int) int {
	n := len(succ)
	reach := make([][]bool, n) // reach[f][t]: a path of one or more edges from f to t
	for f := range succ {
		reach[f] = make([]bool, n)
		stack := append([]int(nil), succ[f]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reach[f][v] {
				reach[f][v] = true
				stack = append(stack, succ[v]...)
			}
		}
	}
	tail := 0
	for t := 0; t < n; t++ {
		for f := 0; f < n; f++ {
			if reach[f][f] && (f == t || reach[f][t]) {
				tail++
				break
			}
		}
	}
	return tail
}

// TestCheckLoopMatchesBruteForce holds Check's loop verdict on random
// dangling-free devices — acyclic by construction, with a loop planted,
// or wired at random — to a brute-force count of the CLBs on or after a
// combinational cycle, and Eval to Check.
func TestCheckLoopMatchesBruteForce(t *testing.T) {
	g := Geometry{Cols: 6, Rows: 5, TracksPerChannel: 4, PinsPerSide: 2}
	src := rng.New(23)
	loops, clean := 0, 0
	for trial := 0; trial < 600; trial++ {
		d := NewDevice(g)
		var used [][2]int
		for x := 0; x < g.Cols; x++ {
			for y := 0; y < g.Rows; y++ {
				if src.Float64() < 0.6 {
					used = append(used, [2]int{x, y})
				}
			}
		}
		if len(used) < 2 {
			continue
		}
		shape := trial % 3 // 0: acyclic, 1: acyclic with a planted loop, 2: wired at random
		cfgs := make([]CLBConfig, len(used))
		from := make([][LUTInputs]int, len(used)) // the node each input reads, -1 for a constant
		for i := range cfgs {
			cfgs[i] = CLBConfig{Used: true, UseFF: src.Float64() < 0.25}
			for k := range cfgs[i].Inputs {
				from[i][k] = -1
				switch n := len(used); {
				case src.Float64() < 0.4:
					cfgs[i].Inputs[k] = ConstSource(src.Bool())
				case shape != 2 && i == 0:
					// acyclic: the first CLB has no earlier one to read
				default:
					if shape != 2 {
						n = i // only earlier CLBs: a DAG
					}
					j := src.Intn(n)
					cfgs[i].Inputs[k] = CLBSource(used[j][0], used[j][1])
					from[i][k] = j
				}
			}
		}
		if shape == 1 {
			// Close a ring through two combinational CLBs.
			a, b := src.Intn(len(used)), src.Intn(len(used))
			cfgs[a].UseFF, cfgs[b].UseFF = false, false
			ka, kb := src.Intn(LUTInputs), src.Intn(LUTInputs)
			cfgs[a].Inputs[ka], from[a][ka] = CLBSource(used[b][0], used[b][1]), b
			cfgs[b].Inputs[kb], from[b][kb] = CLBSource(used[a][0], used[a][1]), a
		}
		succ := make([][]int, len(used))
		for i, at := range used {
			d.WriteCLB(at[0], at[1], cfgs[i])
			for _, j := range from[i] {
				if j >= 0 && !cfgs[j].UseFF {
					succ[j] = append(succ[j], i)
				}
			}
		}

		want := ""
		if tail := cyclicTail(succ); tail > 0 {
			want = fmt.Sprintf("logic: configured fabric contains a combinational loop (%d of %d CLBs unordered)", tail, len(used))
			loops++
		} else {
			clean++
		}
		err := d.Check()
		if got := fmt.Sprint(err); err == nil && want != "" || err != nil && got != want {
			t.Fatalf("trial %d (shape %d): Check() = %v, brute force wants %q", trial, shape, err, want)
		}
		if _, evalErr := d.Eval(); fmt.Sprint(evalErr) != fmt.Sprint(err) {
			t.Fatalf("trial %d: Eval refuses with %v, Check with %v", trial, evalErr, err)
		}
		if shape == 0 && err != nil || shape == 1 && err == nil {
			t.Fatalf("trial %d (shape %d): Check() = %v", trial, shape, err)
		}
	}
	if loops < 100 || clean < 100 {
		t.Fatalf("%d looped and %d clean devices: the generator no longer covers both", loops, clean)
	}
}

// TestCheckDistinctDevicesConcurrently checks and clocks distinct devices
// from parallel goroutines, as a daemon's boards audit theirs, while they
// share the package's free list of working sets: each must read what it
// reads alone. The race gate runs it under -race.
func TestCheckDistinctDevicesConcurrently(t *testing.T) {
	const workers, rounds = 4, 200
	devices := make([]*Device, workers)
	alone := make([]string, workers)
	for w := range devices {
		d := NewDevice(DefaultGeometry())
		chain(d, 8+24*w)
		if w%2 == 1 {
			d.WriteCLB(0, 0, CLBConfig{Used: true, LUT: identity, Inputs: [LUTInputs]Source{CLBSource(0, 1)}})
		}
		d.SetPin(0, true)
		devices[w] = d
		alone[w] = fmt.Sprint(d.Check())
	}
	var wg sync.WaitGroup
	for w, d := range devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := fmt.Sprint(d.Check()); got != alone[w] {
					t.Errorf("device %d round %d: Check() = %s, alone %s", w, r, got, alone[w])
					return
				}
				if _, err := d.Step(); fmt.Sprint(err) != alone[w] {
					t.Errorf("device %d round %d: Step() refuses with %v, Check with %s", w, r, err, alone[w])
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, want := range alone {
		if (w%2 == 1) != (want != "<nil>") {
			t.Errorf("device %d: Check() = %s", w, want)
		}
	}
}
