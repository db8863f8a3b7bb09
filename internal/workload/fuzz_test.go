package workload

// Fuzz target for the spec wire format: DecodeJSON on arbitrary bytes
// must never panic, must reject what it cannot represent, and for every
// input it accepts the canonical re-encoding must round-trip to a
// byte-identical canonical form (decode → encode is a fixpoint). The
// partial-block defaults merge makes this non-trivial: a sparse block
// decodes into a fully populated one, and that full form has to decode
// back to itself. And whatever decodes and validates must build: Validate
// is the only thing between the wire and the generators, so a parameter it
// lets through that makes one panic, size a set past MaxSpecOps or leave
// a task without a program is found here (testdata/fuzz/FuzzSpecDecode
// seeds the ones that used to: diag_every 0, negative and 2^40 counts,
// packets_per 0, a streams x frames product that overflows int). A valid
// spec and its canonical re-decode share one SetCache entry: the key
// sees through the defaults merge as the encoder does. Every input is
// decoded on a fresh strict decoder and, after each of predecessors, on
// the list's decoders: the two decode alike, value and error text.

import (
	"bytes"
	"testing"
)

func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"multimedia"}`,
		`{"scenario":"telecom","telecom":{"sessions":4}}`,
		`{"scenario":"diagnosis","diagnosis":{}}`,
		`{"scenario":"storage","storage":{"streams":2}}`,
		`{"scenario":"synthetic","synthetic":{"tasks":3,"ops_per_task":2}}`,
		`{"scenario":"telecom","telecom":null}`,
		`{"scenario":""}`,
		`{}`,
		`{"scenario":"multimedia","bogus":1}`,
		`{"scenario":"multimedia","telecom":{"sessions":-1}}`,
		`{"scenario":"synthetic","synthetic":{"pool":["alu8","nosuch"]}}`,
		`{"scenario":"storage","telecom":{},"diagnosis":{}}`,
		`not json at all`,
		`{"scenario":"telecom","telecom":{"sessions":4}}x`,
		`{"scenario":"telecom","telecom":{"sessions":4}}` + "\n",
		bigPoolSpec(maxKeptRead + 1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstFresh(t, data)
		spec, err := DecodeJSON(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		canonical, err := spec.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		again, err := DecodeJSON(canonical)
		if err != nil {
			t.Fatalf("canonical form rejected on re-decode: %v\n%s", err, canonical)
		}
		if spec.Validate() == nil { // must not panic on anything decode accepted
			var c SetCache
			set, err := c.Build(spec)
			if err != nil {
				t.Fatalf("valid spec does not build: %v\n%s", err, data)
			}
			checkPrograms(t, set)
			// The canonical form resolves to the same parameters: one entry.
			if got, err := c.Build(again); err != nil || got != set || c.Stats().Hits != 1 {
				t.Fatalf("canonical re-decode missed the spec's entry (%v, stats %+v)\n%s\n%s", err, c.Stats(), data, canonical)
			}
		}
		stable, err := again.EncodeJSON()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(canonical, stable) {
			t.Fatalf("canonical form is not a fixpoint:\n first %s\nsecond %s", canonical, stable)
		}
	})
}
