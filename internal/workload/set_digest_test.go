package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"repro/internal/hostos"
)

var update = flag.Bool("update", false, "rewrite golden files")

const setDigestsPath = "testdata/set_digests.json"

// setDigest pins one built Set: everything a manager or the OS can read
// off it, rendered to text and hashed.
type setDigest struct {
	Spec   string `json:"spec"`
	Tasks  int    `json:"tasks"`
	Ops    int    `json:"ops"`
	SHA256 string `json:"set_sha256"`
}

// request returns the request op points at, or the zero request for an
// op with none: a compute op renders as it did when ops held requests by
// value.
func request(op hostos.Op) hostos.FPGARequest {
	if op.Req == nil {
		return hostos.FPGARequest{}
	}
	return *op.Req
}

// renderSet writes every field of the set — circuit names in order, then
// per task its name, priority, arrival and every field of every op.
func renderSet(h hash.Hash, set *Set) (ops int) {
	names := make([]string, len(set.Circuits))
	for i, c := range set.Circuits {
		names[i] = c.Name
	}
	fmt.Fprintf(h, "circuits %q\n", names)
	for _, ts := range set.Tasks {
		fmt.Fprintf(h, "task %q prio %d at %d ops %d\n", ts.Name, ts.Priority, ts.Arrival, len(ts.Program))
		for _, op := range ts.Program {
			req := request(op)
			fmt.Fprintf(h, " %d %d %q %d %d %v\n", op.Kind, op.D, req.Circuit, req.Evaluations, req.Cycles, req.Pages)
		}
		ops += len(ts.Program)
	}
	return ops
}

// digestSpecs is every builtin spec plus 32 synthetic seeds, alternating
// all-at-zero and Poisson arrivals so both branches of the generator are
// pinned.
func digestSpecs() []Spec {
	specs := BuiltinSpecs()
	for seed := uint64(1); seed <= 32; seed++ {
		c := DefaultSynthetic()
		c.Seed = seed
		c.Tasks = 2 + int(seed%5)
		c.OpsPerTask = 1 + int(seed%7)
		if seed%2 == 0 {
			c.MeanInterval = 700_000
		}
		if seed%8 == 0 {
			c.Pool = []string{"counter8", "lfsr16", "adder8"}
		}
		specs = append(specs, Spec{Scenario: "synthetic", Synthetic: &c})
	}
	return specs
}

func computeSetDigests(t *testing.T) []setDigest {
	t.Helper()
	var out []setDigest
	for _, spec := range digestSpecs() {
		wire, err := spec.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		set, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		h := sha256.New()
		ops := renderSet(h, set)
		out = append(out, setDigest{
			Spec:   string(wire),
			Tasks:  len(set.Tasks),
			Ops:    ops,
			SHA256: hex.EncodeToString(h.Sum(nil)),
		})
	}
	return out
}

// TestSetDigests holds the generators to the sets the committed digests
// were rendered from: the same rng draws in the same order, whatever the
// generators do about memory. Regenerate with -update only when a
// scenario's tasks are meant to change.
func TestSetDigests(t *testing.T) {
	got := computeSetDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(setDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(setDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []setDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digests cover %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("set diverged:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
