// Package lint is the static verification subsystem: a multi-pass
// analyzer for the artifacts the VFPGA stack moves around — gate-level
// netlists, relocatable bitstreams, partition-table snapshots and
// configured devices.
//
// Every virtualization technique in the paper rests on invariants that
// are otherwise only checked dynamically, if at all: partitions must
// stay disjoint and merge cleanly, a paged bitstream must never write
// outside its region, preemption requires the flip-flop state to be
// readback-observable. The passes here check those invariants offline,
// producing structured diagnostics instead of mid-simulation panics.
//
// Usage: fill a Target with whatever artifacts are at hand (nil fields
// are skipped), then Run it through the registered passes:
//
//	diags := lint.RunTarget(&lint.Target{Netlist: nl, Bitstream: bs}, lint.Options{})
//	if lint.HasErrors(diags) { ... }
package lint

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/netlist"
)

// Severity grades a diagnostic.
type Severity int

// Severity levels, in increasing order of badness.
const (
	Info    Severity = iota // observation; never fails a build
	Warning                 // suspicious but functional
	Error                   // invariant violation; artifact is broken
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its lowercase name, so -json
// output reads "error" rather than 2.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the lowercase severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSeverity converts a name ("info", "warning", "error") to a
// Severity.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("lint: unknown severity %q", name)
}

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	// Pos locates the finding: "circuit:node 5", "bitstream:cell (3,2)",
	// "partitions:x=4+3", ...
	Pos string `json:"pos"`
	Msg string `json:"msg"`
}

// String renders "severity: pass: pos: msg".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Severity, d.Pass, d.Pos, d.Msg)
}

// RegionView is a lint-side snapshot of one span of a manager's column
// map (§4's partition table or an amorphous region map): a column range,
// what circuit it holds, which task owns it ("" for a cached, unowned
// resident), and whether it is free. The strip managers in core export
// their state in this shape (the lint package cannot import core without
// a cycle through compile).
type RegionView struct {
	X, W    int
	Circuit string
	Owner   string
	Free    bool
}

// Target bundles the artifacts one lint run inspects. Any field may be
// nil/empty; each pass checks only what is present.
type Target struct {
	// Name labels the target in diagnostics when no netlist or bitstream
	// supplies one (e.g. pure region-state targets).
	Name string

	// Netlist is a gate-level circuit (the netlist-domain passes). It and
	// every segment stage must have passed the netlist package's check,
	// which each of its constructors ends in: the passes take the
	// structural rules it enforces as given.
	Netlist *netlist.Netlist
	// Segments is an ordered stage chain produced by netlist.Segment;
	// when set, Netlist must be the original circuit, and the port-width
	// pass checks the boundary-wire interface between stages.
	Segments []*netlist.Netlist

	// Bitstream is a relocatable configuration image.
	Bitstream *bitstream.Bitstream
	// Geometry, when non-nil, bounds the bitstream against a device.
	Geometry *fabric.Geometry

	// Regions is a column-map snapshot and Cols the device width it must
	// fit. FixedSlots marks a table of static slots (§4's fixed
	// partitions): free neighbours never merge and a tail may stay
	// uncovered, where a sliding map must tile the device exactly.
	Regions    []RegionView
	Cols       int
	FixedSlots bool

	// Device is a configured fabric to cross-check (dangling sources,
	// configuration-level combinational loops).
	Device *fabric.Device
}

// Reporter collects diagnostics on behalf of the pass running. One run
// reuses one Reporter for every pass.
type Reporter struct {
	pass  string
	diags []Diagnostic
}

func (r *Reporter) report(sev Severity, pos, format string, args ...interface{}) {
	r.diags = append(r.diags, Diagnostic{
		Pass: r.pass, Severity: sev, Pos: pos, Msg: fmt.Sprintf(format, args...),
	})
}

// Errorf records an error-severity diagnostic.
func (r *Reporter) Errorf(pos, format string, args ...interface{}) {
	r.report(Error, pos, format, args...)
}

// Warnf records a warning-severity diagnostic.
func (r *Reporter) Warnf(pos, format string, args ...interface{}) {
	r.report(Warning, pos, format, args...)
}

// Infof records an info-severity diagnostic.
func (r *Reporter) Infof(pos, format string, args ...interface{}) {
	r.report(Info, pos, format, args...)
}

// Pass is one named analysis over a Target.
type Pass struct {
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	Run func(t *Target, r *Reporter)
}

// builtin is the ordered default pass set.
var builtin = []Pass{
	{"net-drive", "dangling nets, unused inputs, multiply-driven ports", passNetDrive},
	{"port-width", "bus contiguity and Segment/Concat boundary-wire interfaces", passPortWidth},
	{"dead-logic", "gates that cannot influence any primary output", passDeadLogic},
	{"seq-preempt", "flip-flop state that is not fully readback-observable", passSeqPreempt},
	{"bitstream-bounds", "cell writes, sources and pin bindings inside the claimed region", passBitstreamBounds},
	{"region-state", "partition tables and region maps: no shared or leaked columns, coalesced free spans", passRegionState},
	{"fabric-config", "configured devices: dangling sources, config-level loops", passFabricConfig},
}

// Passes returns the full ordered pass list.
func Passes() []Pass { return append([]Pass(nil), builtin...) }

// Options tunes a lint run.
type Options struct {
	// Passes restricts the run to the named passes; empty runs all.
	Passes []string
	// MinSeverity drops diagnostics below the given level.
	MinSeverity Severity
}

// selected returns the passes the options name, in their order. With
// none named it is the builtin list itself, which the caller only reads.
func (o Options) selected() ([]Pass, error) {
	if len(o.Passes) == 0 {
		return builtin, nil
	}
	out := make([]Pass, 0, len(o.Passes))
	for _, name := range o.Passes {
		i := slices.IndexFunc(builtin, func(p Pass) bool { return p.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("lint: unknown pass %q", name)
		}
		out = append(out, builtin[i])
	}
	return out, nil
}

// Run lints every target through the selected passes and returns the
// combined diagnostics in pass-then-target order.
func Run(targets []*Target, opts Options) ([]Diagnostic, error) {
	sel, err := opts.selected()
	if err != nil {
		return nil, err
	}
	r := &Reporter{}
	for _, t := range targets {
		for _, p := range sel {
			r.pass = p.Name
			p.Run(t, r)
		}
	}
	diags := r.diags
	if opts.MinSeverity > Info {
		kept := diags[:0]
		for _, d := range diags {
			if d.Severity >= opts.MinSeverity {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	return diags, nil
}

// RunTarget lints a single target. Unknown pass names panic (they are a
// programming error at this call depth).
func RunTarget(t *Target, opts Options) []Diagnostic {
	diags, err := Run([]*Target{t}, opts)
	if err != nil {
		panic(err)
	}
	return diags
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity >= Error {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity >= Error {
			out = append(out, d)
		}
	}
	return out
}

// Count returns the number of diagnostics at exactly the given severity.
func Count(diags []Diagnostic, sev Severity) int {
	n := 0
	for _, d := range diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}
