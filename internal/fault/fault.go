// Package fault is a seeded, deterministic fault injector for the
// residency ledger. The paper's premise — configuration downloads are
// slow and fragile, readback/restore can fail mid-flight — only turns
// into a testable claim when failures can be provoked on demand and the
// recovery that follows is byte-reproducible. A Plan (seed plus per-kind
// probabilities and/or an explicit scripted schedule) fully determines
// which ledger operations fail and how; an Injector executes the plan
// one attempt at a time, consuming a fixed number of pseudo-random draws
// per decision so interleaving never perturbs the outcome of unrelated
// injection points.
//
// The package is a leaf: it knows nothing about engines, devices or
// managers. The ledger asks "does this attempt fail, and how?" and
// applies the consequences (wasted time, corrupted bits, retry backoff,
// escalation) itself.
package fault

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind enumerates the injectable failure modes, each tied to one of the
// paper's device mechanics (see DESIGN §3.4).
type Kind int

// Fault kinds.
const (
	// None means the attempt succeeds.
	None Kind = iota
	// ConfigError is a configuration download that fails its CRC check
	// partway through the frame stream.
	ConfigError
	// ConfigTimeout is a configuration port that never raises DONE; the
	// host waits out the full window before giving up.
	ConfigTimeout
	// ReadbackFlip corrupts one bit of the readback stream; the shadow
	// CRC detects it and the saved state is discarded.
	ReadbackFlip
	// RestoreMismatch is a state write-back whose verifying readback
	// disagrees with what was written.
	RestoreMismatch
	// PinGlitch is a pin-multiplexing misconfiguration detected by the
	// post-download boundary scan.
	PinGlitch
	numKinds
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case ConfigError:
		return "config-error"
	case ConfigTimeout:
		return "config-timeout"
	case ReadbackFlip:
		return "readback-flip"
	case RestoreMismatch:
		return "restore-mismatch"
	case PinGlitch:
		return "pin-glitch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a spec-file kind name.
func ParseKind(s string) (Kind, bool) {
	for k := ConfigError; k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return None, false
}

// Kinds returns the injectable kinds in fixed order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := ConfigError; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Point identifies a ledger injection site. Each site owns an
// independent pseudo-random stream and occurrence counter, so faults at
// one site never change what happens at another.
type Point int

// Injection points.
const (
	// PointConfig covers every configuration-port write: strip loads,
	// page loads, and relocation re-writes.
	PointConfig Point = iota
	// PointReadback covers flip-flop state readback.
	PointReadback
	// PointRestore covers flip-flop state write-back.
	PointRestore
	numPoints
)

func (p Point) String() string {
	switch p {
	case PointConfig:
		return "config"
	case PointReadback:
		return "readback"
	case PointRestore:
		return "restore"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// pointKinds lists, per point, the kinds drawn there, in the fixed order
// the cumulative-probability walk uses.
var pointKinds = [numPoints][]Kind{
	PointConfig:   {ConfigError, ConfigTimeout, PinGlitch},
	PointReadback: {ReadbackFlip},
	PointRestore:  {RestoreMismatch},
}

// Retry-policy defaults, used when a Plan leaves them zero.
const (
	DefaultRetries = 3
	DefaultBackoff = 100 * sim.Microsecond
	// MaxRetries bounds the policy so backoff shifts cannot overflow.
	MaxRetries = 16
)

// Plan is the reproducible description of a fault campaign: a seed, a
// probability per kind, an optional scripted schedule (fire kind k on
// its site's n-th attempt), and the ledger's retry policy. Two equal
// plans driving equal op sequences inject exactly the same faults.
type Plan struct {
	// Seed roots every injection stream.
	Seed uint64
	// Prob is the per-attempt probability of each kind (0 when absent).
	Prob map[Kind]float64
	// Script fires kind k deterministically on the listed 1-based
	// attempt numbers of its injection point, regardless of Prob.
	Script map[Kind][]int
	// Retries bounds recovery attempts per operation (0 = DefaultRetries;
	// negative = no retries, first fault escalates).
	Retries int
	// Backoff is the simulated-time penalty before retry n, charged as
	// Backoff << (n-1) (0 = DefaultBackoff).
	Backoff sim.Time
}

// MaxAttempts returns the total attempts allowed per operation: the
// first try plus the plan's bounded retries.
func (p *Plan) MaxAttempts() int {
	r := p.Retries
	if r == 0 {
		r = DefaultRetries
	}
	if r < 0 {
		r = 0
	}
	if r > MaxRetries {
		r = MaxRetries
	}
	return 1 + r
}

// RetryBackoff returns the simulated backoff charged before retry
// number n (1-based): base << (n-1).
func (p *Plan) RetryBackoff(n int) sim.Time {
	b := p.Backoff
	if b <= 0 {
		b = DefaultBackoff
	}
	if n < 1 {
		n = 1
	}
	return b << uint(n-1)
}

// Derive returns the plan re-seeded for a sub-stream (a board of a
// pool, an engine of a multi-board manager): probabilities, script and
// retry policy are shared, only the random streams diverge. Derivation
// composes — Derive(a).Derive(b) and Derive(b).Derive(a) differ — and
// mixes the salt through splitmix64 finalization so neighbouring salts
// give unrelated streams.
func (p Plan) Derive(salt uint64) Plan {
	q := p
	z := p.Seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	q.Seed = z ^ (z >> 31)
	return q
}

// Injector executes a Plan. It is single-goroutine, like the ledger
// that owns it.
type Injector struct {
	plan     Plan
	streams  [numPoints]*rng.Source
	attempts [numPoints]int // attempts decided so far, per point
	counts   [numKinds]int64
}

// NewInjector returns an injector at the start of the plan's streams.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan}
	root := rng.New(plan.Seed)
	for p := Point(0); p < numPoints; p++ {
		in.streams[p] = root.Split()
	}
	return in
}

// Plan returns the plan the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// Next decides the fate of the next attempt at point p. It returns the
// injected kind (None for success) and an auxiliary random payload the
// caller may use to pick which bit to corrupt. Every call consumes
// exactly two draws from p's stream, whether or not a fault fires, so
// outcomes depend only on the plan and the per-point attempt ordinal.
func (in *Injector) Next(p Point) (Kind, uint64) {
	in.attempts[p]++
	occ := in.attempts[p]
	u := in.streams[p].Float64()
	aux := in.streams[p].Uint64()
	kind := None
	for _, k := range pointKinds[p] {
		for _, n := range in.plan.Script[k] {
			if n == occ {
				kind = k
			}
		}
	}
	if kind == None {
		acc := 0.0
		for _, k := range pointKinds[p] {
			acc += in.plan.Prob[k]
			if u < acc {
				kind = k
				break
			}
		}
	}
	if kind != None {
		in.counts[kind]++
	}
	return kind, aux
}

// Summary renders the injected-fault counts compactly ("" when none).
func (in *Injector) Summary() string {
	var b []byte
	for k := ConfigError; k < numKinds; k++ {
		if in.counts[k] == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, in.counts[k])...)
	}
	return string(b)
}

// EscalationError reports an operation whose bounded retries were all
// consumed by injected faults. It travels as an error (TryLoad) or as a
// panic value (operations whose signatures cannot fail); AsEscalation
// recovers it from either.
type EscalationError struct {
	Kind     Kind   // the kind that fired on the final attempt
	Op       string // ledger operation ("load", "readback", "restore", "page")
	Circuit  string
	Attempts int
}

func (e *EscalationError) Error() string {
	return fmt.Sprintf("fault: %s on %s %s: retries exhausted after %d attempts", e.Kind, e.Op, e.Circuit, e.Attempts)
}

// AsEscalation extracts an EscalationError from an error chain or a
// recovered panic value.
func AsEscalation(v any) (*EscalationError, bool) {
	switch x := v.(type) {
	case *EscalationError:
		return x, true
	case error:
		var esc *EscalationError
		if errors.As(x, &esc) {
			return esc, true
		}
	}
	return nil, false
}
