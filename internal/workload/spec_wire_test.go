package workload

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestSpecWireGolden pins the wire form byte for byte: every builtin
// spec as encoded, every bare {"scenario":X} decoded and re-encoded, and
// a synthetic spec naming a two-circuit pool. The benchmark keys its
// golden on these bytes.
func TestSpecWireGolden(t *testing.T) {
	var b strings.Builder
	line := func(what string, s *Spec) {
		wire, err := s.EncodeJSON()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", what, wire)
	}
	for _, s := range BuiltinSpecs() {
		line("builtin "+s.Scenario, &s)
	}
	for _, name := range Scenarios() {
		s, err := DecodeJSON([]byte(fmt.Sprintf(`{"scenario":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		line("bare "+name, s)
	}
	sy := DefaultSynthetic()
	sy.Pool = []string{"parity16", "adder8"}
	line("pool", &Spec{Scenario: "synthetic", Synthetic: &sy})
	s, err := DecodeJSON([]byte(`{"scenario":"synthetic","synthetic":{"pool":["parity16","adder8"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	line("partial pool", s)
	checkGolden(t, "testdata/spec_wire.golden", b.String())
}

// specErrors is one body per way a spec is refused with a 400: the
// message is what the client reads, so each is pinned byte for byte.
var specErrors = []string{
	`{"scenario":"martian"}`,
	`{"scenario":""}`,
	`{"scenario":"storage","telecom":{}}`,
	`{"scenario":"storage","telecom":{},"diagnosis":{}}`,
	`{"scenario":"storage","diagnosis":{},"telecom":{}}`,
	`{"scenario":"storage","storage":{"requests":0},"telecom":{}}`,
	`{"scenario":"multimedia","multimedia":{},"synthetic":{}}`,
	`{"scenario":"telecom","telecom":{"sessions":"many"}}`,
	`{"scenario":"telecom","telecom":5}`,
	`{"scenario":"synthetic","synthetic":{"tasks":"x"},"multimedia":{"streams":"y"}}`,
	`{"scenario":"telecom","telecom":{"sesions":4}}`,
	`{"scenario":"telecom","bogus":1}`,
	`{"scenario":"synthetic","synthetic":{"pool":["alu8","nosuch"]}}`,
	`{"scenario":"synthetic","synthetic":{"pool":["alu8","alu8"]}}`,
	`{"scenario":"synthetic","synthetic":{"pool":["nosuch"],"tasks":0}}`,
	`{"scenario":"multimedia","multimedia":{"streams":0}}`,
	`{"scenario":"telecom","telecom":{"packets_per":0}}`,
	`{"scenario":"diagnosis","diagnosis":{"diag_every":0}}`,
	`{"scenario":"storage","storage":{"write_ratio":1.5}}`,
	`{"scenario":"synthetic","synthetic":{"switch_prob":-1}}`,
	`{"scenario":"synthetic","synthetic":{"tasks":1000,"ops_per_task":1000}}`,
	`{"scenario":5}`,
	`[]`,
}

// TestSpecErrorsGolden pins the refusal of each body in specErrors: the
// decode error, or else the Validate error, which Build must repeat.
func TestSpecErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, wire := range specErrors {
		s, err := DecodeJSON([]byte(wire))
		stage := "decode"
		if err == nil {
			stage = "validate"
			err = s.Validate()
			if _, berr := s.Build(); fmt.Sprint(berr) != fmt.Sprint(err) {
				t.Errorf("%s: Validate %v, Build %v", wire, err, berr)
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", wire)
			continue
		}
		fmt.Fprintf(&b, "%s\n\t%s: %v\n", wire, stage, err)
	}
	checkGolden(t, "testdata/spec_errors.golden", b.String())
}
