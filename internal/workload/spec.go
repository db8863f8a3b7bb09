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
	"sort"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ErrNoCircuits is returned by Build when a spec generates a workload
// set with no circuits. Managers that pin circuits at construction
// (overlay, merged) index the circuit list unconditionally, so an empty
// set must be rejected here, as a typed error, before it reaches them.
var ErrNoCircuits = errors.New("workload: spec builds no circuits")

// SyntheticSpec is the wire form of SyntheticConfig: the circuit pool is
// named (netlist registry names) instead of holding netlist pointers.
// An empty Pool means DefaultPool.
type SyntheticSpec struct {
	Tasks        int      `json:"tasks"`
	OpsPerTask   int      `json:"ops_per_task"`
	EvalsPerOp   int64    `json:"evals_per_op"`
	ComputeTime  sim.Time `json:"compute_time_ns"`
	MeanInterval sim.Time `json:"mean_interval_ns"`
	Pool         []string `json:"pool,omitempty"`
	SwitchProb   float64  `json:"switch_prob"`
	Seed         uint64   `json:"seed"`
}

// checkPool reports the first pool name the circuit library does not
// know, without building anything.
func (s *SyntheticSpec) checkPool() error {
	for _, name := range s.Pool {
		if !netlist.Known(name) {
			return fmt.Errorf("workload: circuit %q not in registry", name)
		}
	}
	return nil
}

// params returns the spec's parameters as a SyntheticConfig, pool unset.
func (s *SyntheticSpec) params() SyntheticConfig {
	return SyntheticConfig{
		Tasks: s.Tasks, OpsPerTask: s.OpsPerTask, EvalsPerOp: s.EvalsPerOp,
		ComputeTime: s.ComputeTime, MeanInterval: s.MeanInterval,
		SwitchProb: s.SwitchProb, Seed: s.Seed,
	}
}

// Validate reports an unknown pool name, or what SyntheticConfig.Validate
// finds in the parameters, without building anything.
func (s *SyntheticSpec) Validate() error {
	if err := s.checkPool(); err != nil {
		return err
	}
	return s.params().Validate()
}

// Config resolves the named pool against the circuit library and
// returns the equivalent SyntheticConfig. The pool holds the library's
// shared netlists: two Configs of one spec name the same circuits.
func (s *SyntheticSpec) Config() (SyntheticConfig, error) {
	cfg := s.params()
	if err := s.checkPool(); err != nil {
		return cfg, err
	}
	for _, name := range s.Pool {
		cfg.CircuitPool = append(cfg.CircuitPool, netlist.MustLookup(name))
	}
	return cfg, nil
}

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
	Synthetic  *SyntheticSpec    `json:"synthetic,omitempty"`
}

// Scenario names understood by Spec.
var scenarios = [...]string{"diagnosis", "multimedia", "storage", "synthetic", "telecom"}

// NumScenarios is the size of the closed scenario set: a table indexed by
// ScenarioIndex has this many entries.
const NumScenarios = len(scenarios)

// Scenarios returns the known scenario names, sorted.
func Scenarios() []string { return append([]string(nil), scenarios[:]...) }

// ScenarioIndex returns name's position in Scenarios(), or -1 when name
// is not a scenario.
func ScenarioIndex(name string) int {
	for i, n := range scenarios {
		if n == name {
			return i
		}
	}
	return -1
}

// DefaultSynthetic returns the synthetic mix used by default specs:
// a moderate load over the default circuit pool.
func DefaultSynthetic() SyntheticSpec {
	return SyntheticSpec{
		Tasks: 6, OpsPerTask: 6, EvalsPerOp: 30_000,
		ComputeTime: 300 * sim.Microsecond, SwitchProb: 0.3, Seed: 1,
	}
}

// BuiltinSpec returns the named scenario with its default parameters
// fully spelled out (no nil blocks), so the wire form documents every
// knob.
func BuiltinSpec(name string) (Spec, error) {
	switch name {
	case "multimedia":
		c := DefaultMultimedia()
		return Spec{Scenario: name, Multimedia: &c}, nil
	case "telecom":
		c := DefaultTelecom()
		return Spec{Scenario: name, Telecom: &c}, nil
	case "diagnosis":
		c := DefaultDiagnosis()
		return Spec{Scenario: name, Diagnosis: &c}, nil
	case "storage":
		c := DefaultStorage()
		return Spec{Scenario: name, Storage: &c}, nil
	case "synthetic":
		c := DefaultSynthetic()
		return Spec{Scenario: name, Synthetic: &c}, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, scenarios)
}

// SetSeed sets the workload seed, the one parameter every scenario has,
// in the spec's parameter block. A spec with no block set (it builds
// its scenario's defaults) gets the block spelled out first, so it
// still builds the defaults but for the seed; a spec Validate refuses
// stays refused.
func (s *Spec) SetSeed(seed uint64) {
	if s.Multimedia == nil && s.Telecom == nil && s.Diagnosis == nil && s.Storage == nil && s.Synthetic == nil {
		if full, err := BuiltinSpec(s.Scenario); err == nil {
			*s = full
		}
	}
	switch {
	case s.Multimedia != nil:
		s.Multimedia.Seed = seed
	case s.Telecom != nil:
		s.Telecom.Seed = seed
	case s.Diagnosis != nil:
		s.Diagnosis.Seed = seed
	case s.Storage != nil:
		s.Storage.Seed = seed
	case s.Synthetic != nil:
		s.Synthetic.Seed = seed
	}
}

// BuiltinSpecs returns every scenario's default Spec, sorted by name.
//
//vfpgavet:ignore testonly -- observation hook: the workload and loadgen tests iterate every builtin scenario
func BuiltinSpecs() []Spec {
	names := Scenarios()
	sort.Strings(names)
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, err := BuiltinSpec(n)
		if err != nil {
			panic(err) // scenarios and BuiltinSpec are maintained together
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
	if ScenarioIndex(s.Scenario) < 0 {
		return fmt.Errorf("workload: unknown scenario %q (have %v)", s.Scenario, scenarios)
	}
	type block struct {
		name string
		set  bool
	}
	blocks := []block{
		{"multimedia", s.Multimedia != nil},
		{"telecom", s.Telecom != nil},
		{"diagnosis", s.Diagnosis != nil},
		{"storage", s.Storage != nil},
		{"synthetic", s.Synthetic != nil},
	}
	for _, b := range blocks {
		if b.set && b.name != s.Scenario {
			return fmt.Errorf("workload: scenario %q with %s parameters set", s.Scenario, b.name)
		}
	}
	// At most the scenario's own block is set by now.
	switch {
	case s.Multimedia != nil:
		return s.Multimedia.Validate()
	case s.Telecom != nil:
		return s.Telecom.Validate()
	case s.Diagnosis != nil:
		return s.Diagnosis.Validate()
	case s.Storage != nil:
		return s.Storage.Validate()
	case s.Synthetic != nil:
		return s.Synthetic.Validate()
	}
	return nil
}

// Build validates the spec and generates its Set.
func (s *Spec) Build() (*Set, error) {
	set, err := s.build()
	if err != nil {
		return nil, err
	}
	if err := validateSet(set, s.Scenario); err != nil {
		return nil, err
	}
	return set, nil
}

// validateSet rejects generated sets no manager can run. Today's
// built-in generators always produce circuits (synthetic falls back to
// DefaultPool), so this is the typed safety net for future generators
// and hand-built specs.
func validateSet(set *Set, scenario string) error {
	if len(set.Circuits) == 0 {
		return fmt.Errorf("%w (scenario %q)", ErrNoCircuits, scenario)
	}
	return nil
}

func (s *Spec) build() (*Set, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Scenario == "synthetic" { // its pool is resolved here, not joined into a key
		sy := s.synthetic()
		cfg, err := sy.Config()
		if err != nil {
			return nil, err
		}
		return Synthetic(cfg), nil
	}
	k := s.key()
	switch k.scenario {
	case "multimedia":
		return Multimedia(k.multimedia), nil
	case "telecom":
		return Telecom(k.telecom), nil
	case "diagnosis":
		return Diagnosis(k.diagnosis), nil
	case "storage":
		return Storage(k.storage), nil
	}
	return nil, fmt.Errorf("workload: unknown scenario %q", s.Scenario)
}

// synthetic returns the synthetic block as it builds: the one given, or
// DefaultSynthetic when it is nil.
func (s *Spec) synthetic() SyntheticSpec {
	if s.Synthetic != nil {
		return *s.Synthetic
	}
	return DefaultSynthetic()
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
	present := func(m json.RawMessage) bool { return m != nil && string(m) != "null" }
	if present(raw.Multimedia) {
		cfg := DefaultMultimedia()
		if err := strictUnmarshal(raw.Multimedia, &cfg); err != nil {
			return err
		}
		s.Multimedia = &cfg
	}
	if present(raw.Telecom) {
		cfg := DefaultTelecom()
		if err := strictUnmarshal(raw.Telecom, &cfg); err != nil {
			return err
		}
		s.Telecom = &cfg
	}
	if present(raw.Diagnosis) {
		cfg := DefaultDiagnosis()
		if err := strictUnmarshal(raw.Diagnosis, &cfg); err != nil {
			return err
		}
		s.Diagnosis = &cfg
	}
	if present(raw.Storage) {
		cfg := DefaultStorage()
		if err := strictUnmarshal(raw.Storage, &cfg); err != nil {
			return err
		}
		s.Storage = &cfg
	}
	if present(raw.Synthetic) {
		cfg := DefaultSynthetic()
		if err := strictUnmarshal(raw.Synthetic, &cfg); err != nil {
			return err
		}
		s.Synthetic = &cfg
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

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
