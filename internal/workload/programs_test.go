package workload

import (
	"encoding/json"
	"errors"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hostos"
)

// badParams is one out-of-range body per way a request used to reach a
// generator it crashed or that sized the daemon's memory: a division by
// zero, a task-less set, empty programs, an unbounded allocation, a
// product that overflows int, virtual time that wraps.
var badParams = []struct{ name, wire, want string }{
	{"diag_every zero", `{"scenario":"diagnosis","diagnosis":{"diag_every":0}}`, "diagnosis diag_every 0, want at least 1"},
	{"negative streams", `{"scenario":"multimedia","multimedia":{"streams":-1}}`, "multimedia streams -1, want 1..65536"},
	{"empty programs", `{"scenario":"telecom","telecom":{"packets_per":0}}`, "telecom packets_per 0"},
	{"two billion streams", `{"scenario":"multimedia","multimedia":{"streams":2000000000}}`, "multimedia streams 2000000000"},
	{"frames at 2^40", `{"scenario":"multimedia","multimedia":{"frames":1099511627776}}`, "multimedia frames"},
	{"streams x frames overflows int", `{"scenario":"multimedia","multimedia":{"streams":4294967296,"frames":4294967296}}`, "multimedia streams"},
	{"in-range counts, too many ops", `{"scenario":"synthetic","synthetic":{"tasks":1000,"ops_per_task":1000}}`, "synthetic ops 2000000, want at most 65536 (MaxSpecOps)"},
	{"negative compute time", `{"scenario":"diagnosis","diagnosis":{"compute_time_ns":-5}}`, "diagnosis compute_time_ns -5"},
	{"compute time that wraps the clock", `{"scenario":"synthetic","synthetic":{"compute_time_ns":9000000000000000000}}`, "synthetic compute_time_ns"},
	{"negative work", `{"scenario":"storage","storage":{"block_cycles":-1}}`, "storage block_cycles -1"},
	{"negative interval", `{"scenario":"telecom","telecom":{"mean_interval_ns":-1}}`, "telecom mean_interval_ns -1"},
	{"probability over one", `{"scenario":"storage","storage":{"write_ratio":1.5}}`, "storage write_ratio 1.5, want 0..1"},
	{"negative skew", `{"scenario":"telecom","telecom":{"protocol_skew":-2}}`, "telecom protocol_skew -2"},
	{"negative switch period", `{"scenario":"multimedia","multimedia":{"switch_every":-1}}`, "multimedia switch_every -1"},
}

func TestSpecParamRanges(t *testing.T) {
	for _, tc := range badParams {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeJSON([]byte(tc.wire))
			var wide *json.UnmarshalTypeError
			if bits.UintSize == 32 && errors.As(err, &wide) {
				return // a count past a 32-bit int is refused sooner, at decode
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			err = spec.Validate()
			if !errors.Is(err, ErrSpecParam) {
				t.Fatalf("Validate = %v, want ErrSpecParam", err)
			}
			//vfpgavet:ignore typederr -- the rendered text is what names the parameter to the client
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %q, want it to name %q", err, tc.want)
			}
			if _, err := spec.Build(); !errors.Is(err, ErrSpecParam) {
				t.Errorf("Build = %v, want ErrSpecParam", err)
			}
		})
	}
	// Legal edges: a diagnosis period longer than the loop (no diagnostic
	// task), zero work, never switching, the largest set there is.
	for _, wire := range []string{
		`{"scenario":"diagnosis","diagnosis":{"control_ops":3,"diag_every":1000000}}`,
		`{"scenario":"telecom","telecom":{"cycles_per_pkt":0,"mean_interval_ns":0}}`,
		`{"scenario":"multimedia","multimedia":{"switch_every":0}}`,
		`{"scenario":"synthetic","synthetic":{"tasks":32768,"ops_per_task":1}}`,
	} {
		spec, err := DecodeJSON([]byte(wire))
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		if _, err := spec.Build(); err != nil {
			t.Errorf("%s: %v", wire, err)
		}
	}
}

// A generator handed a config its Validate rejects panics with that
// error: the caller skipped validation.
func TestGeneratorPanicsOnInvalidConfig(t *testing.T) {
	cfg := DefaultDiagnosis()
	cfg.DiagEvery = 0
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrSpecParam) {
			t.Fatalf("recovered %v, want ErrSpecParam", err)
		}
	}()
	Diagnosis(cfg)
}

// checkPrograms holds a built set to the one-array rule: every program
// non-empty and at exactly its capacity, the whole within MaxSpecOps;
// and to the op layout: a hardware op points at a request, a compute op
// at none.
func checkPrograms(t testing.TB, set *Set) {
	t.Helper()
	total := 0
	for _, ts := range set.Tasks {
		if len(ts.Program) == 0 {
			t.Fatalf("%s has an empty program", ts.Name)
		}
		if len(ts.Program) != cap(ts.Program) {
			t.Fatalf("%s: program len %d cap %d: an append would write into its neighbour", ts.Name, len(ts.Program), cap(ts.Program))
		}
		for k, op := range ts.Program {
			if (op.Kind == hostos.OpFPGA) != (op.Req != nil) {
				t.Fatalf("%s op %d: kind %d with request %v", ts.Name, k, op.Kind, op.Req)
			}
		}
		total += len(ts.Program)
	}
	if len(set.Tasks) == 0 || total > MaxSpecOps {
		t.Fatalf("%d tasks, %d ops (MaxSpecOps %d)", len(set.Tasks), total, MaxSpecOps)
	}
}

// Appending to any task's program must leave every other task's alone,
// though all of them share one array: every op, its request compared by
// value, is still the one a fresh build makes.
func TestProgramsDoNotAlias(t *testing.T) {
	for _, spec := range digestSpecs() {
		set, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkPrograms(t, set)
		ref, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := range set.Tasks {
			_ = append(set.Tasks[i].Program, hostos.Compute(-1), hostos.Compute(-1))
		}
		for i, ts := range set.Tasks {
			for k, op := range ts.Program {
				want := ref.Tasks[i].Program[k]
				if op.Kind != want.Kind || op.D != want.D || !reflect.DeepEqual(request(op), request(want)) {
					t.Fatalf("%s %s op %d overwritten by a neighbour's append: %+v %+v, want %+v %+v", spec.Scenario, ts.Name, k, op, request(op), want, request(want))
				}
			}
		}
	}
}

// A build allocates the set, its task table, the one op array, the one
// request table, the generator's rng and circuit list, and a name per
// task — not a program grown by doubling per task (21–71 allocations
// before).
func TestSpecBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, spec := range BuiltinSpecs() {
		n := testing.AllocsPerRun(50, func() {
			if _, err := spec.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if n > 24 {
			t.Errorf("%s: Build allocates %v times, want at most 24", spec.Scenario, n)
		}
	}
}

// bytesPerRun is what one call of f allocates, in bytes, averaged over
// runs calls after one to warm up.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A build's ops cost 24 bytes each: an op points at its set's request,
// and a set has a handful of distinct ones. What the build allocates
// beside its ops is a fixed part per scenario: the task table and names,
// the request table, the rng, the circuit list, and storage's unused op
// slots (a request's program is sized for its longest form). The budget
// is both with 10 % slack; while every op carried its request by value
// (72 bytes), multimedia's build was 14.3 KiB against 5.2 KiB now.
func TestSpecBuildBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	opBytes := int(unsafe.Sizeof(hostos.Op{}))
	fixed := map[string]int{ // bytes beside the ops on a 64-bit build
		"diagnosis":  750,
		"multimedia": 760,
		"storage":    1850,
		"synthetic":  900,
		"telecom":    1840,
	}
	for _, spec := range BuiltinSpecs() {
		set, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.1 * float64(opBytes*set.Ops()+fixed[spec.Scenario])
		got := bytesPerRun(100, func() {
			if _, err := spec.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("%s: Build allocates %.0f bytes for %d ops, want at most %.0f", spec.Scenario, got, set.Ops(), budget)
		}
	}
}

func BenchmarkSpecBuild(b *testing.B) {
	for _, spec := range BuiltinSpecs() {
		b.Run(spec.Scenario, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
