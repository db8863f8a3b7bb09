package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSpecRoundTrip: every built-in spec must encode→decode→encode
// byte-identically — the property the vfpgad job API depends on. A field
// that loses its JSON tag, turns unexported, or gains a non-serializable
// type breaks this immediately.
func TestSpecRoundTrip(t *testing.T) {
	specs := BuiltinSpecs()
	if len(specs) != len(Scenarios()) {
		t.Fatalf("BuiltinSpecs returned %d specs for %d scenarios", len(specs), len(Scenarios()))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Scenario, func(t *testing.T) {
			first, err := spec.EncodeJSON()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			decoded, err := DecodeJSON(first)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			second, err := decoded.EncodeJSON()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("round trip not byte-identical:\n first: %s\nsecond: %s", first, second)
			}
		})
	}
}

// A named pool must survive the round trip and resolve against the
// registry; an unknown or repeated name must be rejected at validation
// time.
func TestSyntheticSpecPool(t *testing.T) {
	spec := Spec{Scenario: "synthetic", Synthetic: &SyntheticConfig{
		Tasks: 2, OpsPerTask: 2, EvalsPerOp: 1000,
		Pool: []string{"parity16", "adder8"}, Seed: 7,
	}}
	data, err := spec.EncodeJSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	set, err := back.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(set.Circuits) != 2 {
		t.Fatalf("pool resolved to %d circuits, want 2", len(set.Circuits))
	}
	bad := Spec{Scenario: "synthetic", Synthetic: &SyntheticConfig{Tasks: 1, OpsPerTask: 1, Pool: []string{"nope"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown pool circuit passed validation")
	}
	// A repeat would put one netlist in the set's circuits twice.
	for _, pool := range [][]string{{"alu8", "alu8"}, {"parity16", "adder8", "parity16"}} {
		syn := SyntheticConfig{Tasks: 1, OpsPerTask: 1, EvalsPerOp: 1, Pool: pool}
		spec := Spec{Scenario: "synthetic", Synthetic: &syn}
		if err := spec.Validate(); err == nil {
			t.Fatalf("pool %v passed validation", pool)
		}
		syn.Pool = pool[:len(pool)-1]
		if err := spec.Validate(); err != nil {
			t.Fatalf("pool %v: %v", syn.Pool, err)
		}
	}
}

// Builds from a spec must be deterministic, and a scenario-only spec
// must build the scenario's default set.
func TestSpecBuildDeterministic(t *testing.T) {
	for _, spec := range BuiltinSpecs() {
		a, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Scenario, err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Scenario, err)
		}
		ja, _ := json.Marshal(a.Tasks)
		jb, _ := json.Marshal(b.Tasks)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: two builds of the same spec differ", spec.Scenario)
		}
		bare := Spec{Scenario: spec.Scenario}
		c, err := bare.Build()
		if err != nil {
			t.Fatalf("%s bare: %v", spec.Scenario, err)
		}
		jc, _ := json.Marshal(c.Tasks)
		if !bytes.Equal(ja, jc) {
			t.Fatalf("%s: bare spec build differs from default spec build", spec.Scenario)
		}
	}
}

// Mismatched parameter blocks and unknown fields are rejected.
func TestSpecValidate(t *testing.T) {
	mm := DefaultMultimedia()
	bad := Spec{Scenario: "telecom", Multimedia: &mm}
	if err := bad.Validate(); err == nil {
		t.Fatal("telecom spec with multimedia block passed validation")
	}
	if _, err := DecodeJSON([]byte(`{"scenario":"telecom","bogus":1}`)); err == nil {
		t.Fatal("unknown field passed strict decoding")
	}
	if err := (&Spec{Scenario: "martian"}).Validate(); err == nil {
		t.Fatal("unknown scenario passed validation")
	}
}

// TestSpecPartialBlock: a parameter block that sets only some fields
// keeps the scenario defaults for the rest — the contract the vfpgad
// API documents ("omitted fields use the scenario's defaults").
func TestSpecPartialBlock(t *testing.T) {
	s, err := DecodeJSON([]byte(`{"scenario":"telecom","telecom":{"sessions":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultTelecom()
	want.Sessions = 4
	if s.Telecom == nil || *s.Telecom != want {
		t.Errorf("partial telecom block = %+v, want %+v", s.Telecom, want)
	}
	if _, err := s.Build(); err != nil {
		t.Errorf("partial spec does not build: %v", err)
	}

	// An explicit null block is the same as an absent one.
	s, err = DecodeJSON([]byte(`{"scenario":"telecom","telecom":null}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Telecom != nil {
		t.Errorf("null block decoded as %+v, want nil", s.Telecom)
	}

	// Unknown fields inside a block still fail loudly.
	if _, err := DecodeJSON([]byte(`{"scenario":"telecom","telecom":{"sesions":4}}`)); err == nil {
		t.Error("misspelled block field accepted")
	}
}

// SetSeed reaches every scenario's seed, and a bare spec gets its block
// spelled out at the defaults first: both forms then encode alike, seed
// set.
func TestSpecSetSeed(t *testing.T) {
	for _, name := range Scenarios() {
		full, err := BuiltinSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		bare := Spec{Scenario: name}
		full.SetSeed(77)
		bare.SetSeed(77)
		a, err := full.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := bare.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: spelled-out %s, bare %s", name, a, b)
		}
		var blocks map[string]json.RawMessage
		if err := json.Unmarshal(a, &blocks); err != nil {
			t.Fatal(err)
		}
		var block struct{ Seed uint64 }
		if err := json.Unmarshal(blocks[name], &block); err != nil || block.Seed != 77 {
			t.Errorf("%s: block %s, want seed 77", name, blocks[name])
		}
	}
}
