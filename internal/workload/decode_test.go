package workload

// Tests of the strict decoders' free list: what a kept decoder holds, how
// many are kept, and decoders taken and given back by rival goroutines.
// FuzzSpecDecode holds every decode on a list decoder to a fresh one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// scribbled is what a kept decoder reads until its next use sets its
// source: a decoder read after it is given back decodes garbage.
type scribbled struct{}

func (scribbled) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xff
	}
	return len(p), nil
}

func init() {
	strictDecoders.Scribble = func(d *strictDecoder) {
		if d.src != nil || d.data.Size() != 0 {
			panic("workload: a strict decoder went back on the list still reading its caller's input")
		}
		d.src = scribbled{}
	}
}

// takeKept empties strictDecoders and returns what it held.
func takeKept() []*strictDecoder {
	var kept []*strictDecoder
	for d := strictDecoders.Take(struct{}{}); d != nil; d = strictDecoders.Take(struct{}{}) {
		kept = append(kept, d)
	}
	return kept
}

// decodeFresh decodes a spec as DecodeJSON does, on a new strict decoder,
// with no decoder left on the list from an earlier decode.
func decodeFresh(data []byte) (*Spec, error) {
	takeKept()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: decode spec: %w", err)
	}
	return &s, nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// bigPoolSpec is a valid spec whose wire form is over maxKeptRead bytes.
func bigPoolSpec(size int) string {
	n := size/len(`"alu8",`) + 1
	return `{"scenario":"synthetic","synthetic":{"pool":[` + strings.Repeat(`"alu8",`, n) + `"alu8"]}}`
}

// predecessors are what a list decoder decodes just before the input
// FuzzSpecDecode checks: a valid spec, an empty input, a syntax error, a
// value with trailing garbage, and a value over the size cap. A decoder
// kept after the second, third or fourth would start the next decode on
// a stale error or on the garbage.
var predecessors = []string{
	`{"scenario":"telecom","telecom":{"sessions":4}}`,
	``,
	`{"scenario":"telecom","telec`,
	`{"scenario":"multimedia"}x`,
	bigPoolSpec(2 * maxKeptRead),
}

// checkAgainstFresh decodes data after each predecessor and requires the
// value and error text a fresh decoder gives.
func checkAgainstFresh(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeFresh(data)
	for _, prev := range predecessors {
		DecodeJSON([]byte(prev))
		got, err := DecodeJSON(data)
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %.60q, decode of %.200q:\n got %+v, %v\nwant %+v, %v", prev, data, got, err, want, wantErr)
		}
	}
}

// TestStrictDecodersBounded: with more decoders in use at once than
// GOMAXPROCS, GOMAXPROCS are kept; after a trace and a body over the
// size cap, none kept has read past the cap; after a small body, none
// kept still reads its caller's input.
func TestStrictDecodersBounded(t *testing.T) {
	takeKept()
	procs := runtime.GOMAXPROCS(0)
	n := procs + 2
	gate := make(chan struct{})
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			var v struct{ A int }
			r := &gatedReader{started: &started, gate: gate, r: strings.NewReader(`{"A":1}`)}
			if err := DecodeStrict(r, &v); err != nil || v.A != 1 {
				t.Errorf("gated decode: %+v, %v", v, err)
			}
		}()
	}
	started.Wait() // n decoders in use at once
	close(gate)
	done.Wait()
	if kept := takeKept(); len(kept) != procs {
		t.Errorf("%d decoders given back at once: %d kept, want GOMAXPROCS %d", n, len(kept), procs)
	}

	// The trace without its trailing newline, so its decoder reads
	// nothing past its value and only the cap drops it.
	telecom, err := BuiltinSpec("telecom")
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{Version: TraceVersion, Tenants: []string{"a"}}
	for i := 0; i < 200; i++ {
		tr.Entries = append(tr.Entries, TraceEntry{At: sim.Time(i), Tenant: "a", Spec: telecom})
	}
	data, err := tr.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.TrimSpace(data)
	if len(data) <= maxKeptRead {
		t.Fatalf("trace of %d bytes is not over the cap %d", len(data), maxKeptRead)
	}
	if _, err := DecodeTrace(data); err != nil {
		t.Fatalf("large trace: %v", err)
	}
	var spec Spec
	if err := DecodeStrict(strings.NewReader(bigPoolSpec(1<<20)), &spec); err != nil {
		t.Fatalf("1 MiB body: %v", err)
	}
	for i, d := range takeKept() {
		if d.n > maxKeptRead {
			t.Errorf("kept decoder %d read %d bytes, over the cap %d", i, d.n, maxKeptRead)
		}
	}

	if err := DecodeStrict(strings.NewReader(predecessors[0]), &spec); err != nil {
		t.Fatalf("small body: %v", err)
	}
	kept := takeKept()
	if len(kept) == 0 {
		t.Error("no decoder kept after a small body")
	}
	for i, d := range kept {
		if _, ok := d.src.(scribbled); !ok || d.data.Size() != 0 {
			t.Errorf("kept decoder %d still reads its caller's input (%T, %d bytes)", i, d.src, d.data.Size())
		}
	}
}

// gatedReader counts its first Read as started and blocks it until gate
// closes, then reads r.
type gatedReader struct {
	started *sync.WaitGroup
	gate    chan struct{}
	once    bool
	r       *strings.Reader
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if !g.once {
		g.once = true
		g.started.Done()
		<-g.gate
	}
	return g.r.Read(p)
}

// TestStrictDecodersConcurrent decodes, from rival goroutines, specs with
// trailing bytes, syntax errors and unknown fields between valid ones,
// each on whichever decoder the list hands out, and requires what a fresh
// decoder gives.
func TestStrictDecodersConcurrent(t *testing.T) {
	inputs := append([]string{
		`{"scenario":"storage","storage":{"streams":2}}`,
		`{"scenario":"multimedia"}` + "\n",
		`{"scenario":"multimedia","bogus":1}`,
		`{"scenario":"synthetic","synthetic":{"tasks":3,"ops_per_task":2}}`,
	}, predecessors...)
	type result struct {
		spec *Spec
		err  string
	}
	want := make([]result, len(inputs))
	for i, in := range inputs {
		s, err := decodeFresh([]byte(in))
		want[i] = result{s, errText(err)}
	}
	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(inputs)
				s, err := DecodeJSON([]byte(inputs[i]))
				if got := (result{s, errText(err)}); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("decode of %.60q: got %+v, want %+v", inputs[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
