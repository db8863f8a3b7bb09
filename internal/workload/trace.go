// Workload traces: the recorded wire form of an arrival stream. A Trace
// is a versioned, replayable sequence of timestamped Spec submissions
// with tenant labels — what the open-loop load harness (internal/loadgen,
// vfpgaload -trace) records once and replays at configurable speedup.
// Like Spec, a Trace is a pure value: timestamps are virtual nanoseconds,
// circuits are registry names, so equal traces replay to equal results.

package workload

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// TraceVersion is the wire version this package reads and writes.
// Decoding any other version fails with ErrTraceVersion: the harness
// must never silently reinterpret a recorded workload.
const TraceVersion = "vfpga-trace/v1"

// Typed trace-decode errors. Callers match them with errors.Is to tell
// a malformed file from an incompatible one.
var (
	// ErrTraceVersion rejects a trace whose version field is not
	// TraceVersion.
	ErrTraceVersion = errors.New("workload: unsupported trace version")
	// ErrTraceOrder rejects entries whose timestamps decrease or are
	// negative: replay clocks only run forward.
	ErrTraceOrder = errors.New("workload: trace timestamps not monotonic")
	// ErrTraceTenant rejects an entry labeled with a tenant the trace
	// header does not declare (or a header declaring a tenant twice).
	ErrTraceTenant = errors.New("workload: trace tenant not declared")
	// ErrTraceEmpty rejects a trace with no entries or no tenants: there
	// is nothing to replay.
	ErrTraceEmpty = errors.New("workload: trace has no entries")
)

// TraceEntry is one arrival: at virtual time At, tenant Tenant submits
// Spec.
type TraceEntry struct {
	At     sim.Time `json:"at_ns"`
	Tenant string   `json:"tenant"`
	Spec   Spec     `json:"workload"`
}

// Trace is a recorded arrival stream. Tenants declares every tenant the
// entries may use (a strict allowlist, so a typo'd label fails at decode
// time, not mid-replay); Seed records the generator seed that produced
// the trace, for provenance only — replay never draws from it.
type Trace struct {
	Version string       `json:"version"`
	Seed    uint64       `json:"seed"`
	Tenants []string     `json:"tenants"`
	Entries []TraceEntry `json:"entries"`
}

// Outcome is what actually running one trace entry on the serving stack
// produced: the job's virtual makespan, and whether it failed (with the
// typed injected-fault kind when the failure was a chaos-campaign
// casualty). Outcomes are pure values: equal specs yield equal outcomes.
type Outcome struct {
	Service   sim.Time `json:"service_ns"`
	Failed    bool     `json:"failed,omitempty"`
	FaultKind string   `json:"fault_kind,omitempty"`
}

// RunFunc executes one submission on the serving stack and reports its
// outcome. A non-nil error aborts the whole replay (infrastructure
// broke); a job that merely failed comes back as Outcome.Failed.
type RunFunc func(tenant string, spec *Spec) (Outcome, error)

// Validate checks the trace invariants: supported version, at least one
// tenant and entry, unique declared tenants, non-negative monotonically
// non-decreasing timestamps, every entry tenant declared, every spec
// valid.
func (tr *Trace) Validate() error {
	if tr.Version != TraceVersion {
		return fmt.Errorf("%w: %q (want %q)", ErrTraceVersion, tr.Version, TraceVersion)
	}
	if len(tr.Tenants) == 0 || len(tr.Entries) == 0 {
		return ErrTraceEmpty
	}
	declared := make(map[string]bool, len(tr.Tenants))
	for _, t := range tr.Tenants {
		if t == "" {
			return fmt.Errorf("%w: empty tenant name in header", ErrTraceTenant)
		}
		if declared[t] {
			return fmt.Errorf("%w: %q declared twice", ErrTraceTenant, t)
		}
		declared[t] = true
	}
	last := sim.Time(0)
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if e.At < 0 || e.At < last {
			return fmt.Errorf("%w: entry %d at %d ns after %d ns", ErrTraceOrder, i, e.At, last)
		}
		last = e.At
		if !declared[e.Tenant] {
			return fmt.Errorf("%w: entry %d labeled %q (declared %v)", ErrTraceTenant, i, e.Tenant, tr.Tenants)
		}
		if err := e.Spec.Validate(); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return nil
}

// Duration returns the virtual time spanned by the arrivals: the last
// entry's timestamp (arrivals start at virtual zero).
func (tr *Trace) Duration() sim.Time {
	if len(tr.Entries) == 0 {
		return 0
	}
	return tr.Entries[len(tr.Entries)-1].At
}

// EncodeJSON renders the trace in its canonical wire form: indented,
// trailing newline, field order fixed by the struct.
func (tr *Trace) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTrace parses and validates a trace from its wire form. Unknown
// fields anywhere — header, entries, or the embedded specs — are
// rejected, so a misspelled knob fails loudly instead of silently
// defaulting, and every validation failure carries its typed error.
func DecodeTrace(data []byte) (*Trace, error) {
	var tr Trace
	if err := strictUnmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	return &tr, nil
}
