// Workload specs: the wire form of a workload. A Spec names one of the
// built-in scenario generators plus its full parameter set, serializes
// to/from JSON (the vfpgad job API submits Specs over the network), and
// builds the concrete Set on demand. Every duration is expressed in
// virtual nanoseconds (sim.Time), every circuit by its registry name, so
// a Spec is a pure value: equal Specs build equal Sets.

package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/flat"
)

// ErrNoCircuits is returned by Build when a spec generates a workload
// set with no circuits. Managers that pin circuits at construction
// (overlay, merged) index the circuit list unconditionally, so an empty
// set must be rejected here, as a typed error, before it reaches them.
var ErrNoCircuits = errors.New("workload: spec builds no circuits")

// Spec is a named, self-contained, JSON-serializable workload: one
// scenario plus its parameters. Exactly the parameter block matching
// Scenario must be set; a Spec with all blocks nil builds the scenario's
// default configuration.
type Spec struct {
	Scenario   string            `json:"scenario"`
	Multimedia *MultimediaConfig `json:"multimedia,omitempty"`
	Telecom    *TelecomConfig    `json:"telecom,omitempty"`
	Diagnosis  *DiagnosisConfig  `json:"diagnosis,omitempty"`
	Storage    *StorageConfig    `json:"storage,omitempty"`
	Synthetic  *SyntheticConfig  `json:"synthetic,omitempty"`
}

// params is a scenario's parameter block: a pointer to its config.
type params interface {
	size() (int, error) // the set's op count, or the first parameter out of range
	reseed(seed uint64)
}

// scenario is one entry of the scenario table: everything the spec code
// knows of a scenario.
type scenario struct {
	name string
	// block returns the spec's parameter block, nil when it is unset.
	block func(*Spec) params
	// spell sets the spec's block to the defaults and returns it.
	spell func(*Spec) params
	// build generates the set of the spec's block, or of the defaults
	// when it is unset.
	build func(*Spec) *Set
}

// newScenario states a scenario by its name, its Spec field, its
// defaults and its generator.
func newScenario[C any, P interface {
	*C
	params
}](name string, field func(*Spec) **C, defaults func() C, generate func(C) *Set) scenario {
	return scenario{
		name: name,
		block: func(s *Spec) params {
			if p := *field(s); p != nil {
				return P(p)
			}
			return nil
		},
		spell: func(s *Spec) params {
			c := defaults()
			*field(s) = &c
			return P(&c)
		},
		build: func(s *Spec) *Set { return generate(resolved(*field(s), defaults)) },
	}
}

// resolved returns the block p, or the defaults when it is nil.
func resolved[C any](p *C, defaults func() C) C {
	if p != nil {
		return *p
	}
	return defaults()
}

// table is the closed scenario set, in the order Validate and
// UnmarshalJSON visit the parameter blocks: of two offending blocks, the
// error names the earlier one.
var table = [...]scenario{
	newScenario("multimedia", func(s *Spec) **MultimediaConfig { return &s.Multimedia }, DefaultMultimedia, Multimedia),
	newScenario("telecom", func(s *Spec) **TelecomConfig { return &s.Telecom }, DefaultTelecom, Telecom),
	newScenario("diagnosis", func(s *Spec) **DiagnosisConfig { return &s.Diagnosis }, DefaultDiagnosis, Diagnosis),
	newScenario("storage", func(s *Spec) **StorageConfig { return &s.Storage }, DefaultStorage, Storage),
	newScenario("synthetic", func(s *Spec) **SyntheticConfig { return &s.Synthetic }, DefaultSynthetic, Synthetic),
}

// NumScenarios is the size of the closed scenario set: a table indexed by
// ScenarioIndex has this many entries.
const NumScenarios = len(table)

// scenarios is the table's names, sorted.
var scenarios = func() (names [NumScenarios]string) {
	for i, sc := range table {
		names[i] = sc.name
	}
	slices.Sort(names[:])
	return names
}()

// Scenarios returns the known scenario names, sorted.
func Scenarios() []string { return append([]string(nil), scenarios[:]...) }

// ScenarioIndex returns name's position in Scenarios(), or -1 when name
// is not a scenario.
func ScenarioIndex(name string) int { return slices.Index(scenarios[:], name) }

// lookup returns the named scenario's table entry.
func lookup(name string) (*scenario, error) {
	for i := range table {
		if table[i].name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, scenarios)
}

// BuiltinSpec returns the named scenario with its default parameters
// fully spelled out (no nil blocks), so the wire form documents every
// knob.
func BuiltinSpec(name string) (Spec, error) {
	sc, err := lookup(name)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{Scenario: name}
	sc.spell(&s)
	return s, nil
}

// SetSeed sets the workload seed, the one parameter every scenario has,
// in the spec's parameter block. A spec with no block set (it builds
// its scenario's defaults) gets the block spelled out first, so it
// still builds the defaults but for the seed; a spec Validate refuses
// stays refused.
func (s *Spec) SetSeed(seed uint64) {
	for i := range table {
		if p := table[i].block(s); p != nil {
			p.reseed(seed)
			return
		}
	}
	if sc, err := lookup(s.Scenario); err == nil {
		sc.spell(s).reseed(seed)
	}
}

// BuiltinSpecs returns every scenario's default Spec, sorted by name.
//
//vfpgavet:ignore testonly -- observation hook: the workload and loadgen tests iterate every builtin scenario
func BuiltinSpecs() []Spec {
	out := make([]Spec, 0, NumScenarios)
	for _, n := range scenarios {
		s, err := BuiltinSpec(n)
		if err != nil {
			panic(err) // scenarios holds the table's names
		}
		out = append(out, s)
	}
	return out
}

// Validate checks that the scenario is known, that no parameter block
// for a different scenario is set (a typo'd submission should fail at
// admission, not build a surprise default), and that every parameter of
// the block that is set lies in its legal range with the whole set at
// most MaxSpecOps ops — an error wrapping ErrSpecParam otherwise, so the
// generators never see a configuration they would panic on.
func (s *Spec) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate, returning the spec's table entry.
func (s *Spec) validate() (*scenario, error) {
	own, err := lookup(s.Scenario)
	if err != nil {
		return nil, err
	}
	for i := range table {
		if sc := &table[i]; sc != own && sc.block(s) != nil {
			return nil, fmt.Errorf("workload: scenario %q with %s parameters set", s.Scenario, sc.name)
		}
	}
	if p := own.block(s); p != nil {
		if _, err := p.size(); err != nil {
			return nil, err
		}
	}
	return own, nil
}

// Build validates the spec and generates its Set.
func (s *Spec) Build() (*Set, error) {
	sc, err := s.validate()
	if err != nil {
		return nil, err
	}
	set := sc.build(s)
	if err := validateSet(set, s.Scenario); err != nil {
		return nil, err
	}
	return set, nil
}

// validateSet rejects generated sets no manager can run. Today's
// built-in generators always produce circuits (synthetic falls back to
// its default pool), so this is the typed safety net for future
// generators and hand-built specs.
func validateSet(set *Set, scenario string) error {
	if len(set.Circuits) == 0 {
		return fmt.Errorf("%w (scenario %q)", ErrNoCircuits, scenario)
	}
	return nil
}

// EncodeJSON renders the spec in its canonical wire form.
func (s *Spec) EncodeJSON() ([]byte, error) { return json.Marshal(s) }

// UnmarshalJSON decodes a spec with partial-block semantics: each
// parameter block that is present starts from its scenario's defaults,
// so `{"scenario":"telecom","telecom":{"sessions":4}}` overrides only
// the session count. Unknown fields are rejected here (not left to the
// caller's decoder — custom unmarshalers don't inherit
// DisallowUnknownFields), so misspelled parameters fail loudly.
func (s *Spec) UnmarshalJSON(data []byte) error {
	// The blocks undecoded, in table order. The decoder's messages name
	// this struct's type, so it keeps its shape.
	var raw struct {
		Scenario   string          `json:"scenario"`
		Multimedia json.RawMessage `json:"multimedia"`
		Telecom    json.RawMessage `json:"telecom"`
		Diagnosis  json.RawMessage `json:"diagnosis"`
		Storage    json.RawMessage `json:"storage"`
		Synthetic  json.RawMessage `json:"synthetic"`
	}
	if err := strictUnmarshal(data, &raw); err != nil {
		return err
	}
	*s = Spec{Scenario: raw.Scenario}
	blocks := [NumScenarios]json.RawMessage{raw.Multimedia, raw.Telecom, raw.Diagnosis, raw.Storage, raw.Synthetic}
	for i, m := range blocks {
		if m != nil && string(m) != "null" {
			if err := strictUnmarshal(m, table[i].spell(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeJSON parses a spec from its wire form, rejecting unknown fields
// so misspelled parameters fail loudly instead of silently defaulting.
func DecodeJSON(data []byte) (*Spec, error) {
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workload: decode spec: %w", err)
	}
	return &s, nil
}

// strictUnmarshal decodes the JSON value at the head of data into v as
// DecodeStrict does.
func strictUnmarshal(data []byte, v any) error { return decodeStrict(nil, data, v) }

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields. Bytes after the value are left unread or ignored, as a
// json.Decoder leaves them.
func DecodeStrict(r io.Reader, v any) error { return decodeStrict(r, nil, v) }

// maxKeptRead is the most bytes a strict decoder may read in one use and
// still be kept: about twenty builtin spec bodies. A decoder that read
// more holds a buffer grown to match, so a large body or trace leaves it
// to the collector.
const maxKeptRead = 4 << 10

// strictDecoder is a json.Decoder that rejects unknown fields, reading
// through itself from the source of its current use.
type strictDecoder struct {
	dec  *json.Decoder
	src  io.Reader    // the current use's source; nil on the list
	data bytes.Reader // the source when a use decodes a []byte
	n    int64        // bytes read from src in the current (or last) use
}

func (d *strictDecoder) Read(p []byte) (int, error) {
	n, err := d.src.Read(p)
	d.n += int64(n)
	return n, err
}

// strictDecoders holds the strict decoders no call is using, at most
// GOMAXPROCS of them: a daemon decodes each job submission, and the
// spec inside it, on the request's goroutine. A json.Decoder cannot be
// reset, so one goes back only when its next Decode runs as a new
// decoder's would: its Decode succeeded (a syntax or read error sticks),
// it buffered nothing past the value (the next Decode would start on
// those bytes), and it read at most maxKeptRead. Only a SyntaxError's
// Offset tells it from a new one: it counts from the decoder's first
// use, and nothing in the repo reads it.
var strictDecoders = flat.NewFreeList[struct{}, *strictDecoder](runtime.GOMAXPROCS(0))

// decodeStrict decodes one JSON value from r, or from data when r is
// nil, into v, on a strict decoder from strictDecoders or a new one.
func decodeStrict(r io.Reader, data []byte, v any) error {
	d := strictDecoders.Take(struct{}{})
	if d == nil {
		d = new(strictDecoder)
		d.dec = json.NewDecoder(d)
		d.dec.DisallowUnknownFields()
	}
	if r == nil {
		d.data.Reset(data)
		r = &d.data
	}
	start := d.dec.InputOffset()
	d.src, d.n = r, 0
	err := d.dec.Decode(v)
	d.src = nil
	d.data.Reset(nil)
	if err == nil && d.dec.InputOffset()-start == d.n && d.n <= maxKeptRead {
		strictDecoders.Give(struct{}{}, d)
	}
	return err
}
