package lint

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Fault plans have no lint pass: fault.ParseSpec is the one place a plan
// enters a tool, and it refuses every plan the verifier would have
// flagged. These tests pin each of those checks on ParseSpec, next to the
// passes that still check the other artifacts.

// rejects fails the test for each spec that ParseSpec accepts.
func rejects(t *testing.T, specs ...string) {
	t.Helper()
	for _, s := range specs {
		if _, err := fault.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

// accepts parses spec and fails the test if ParseSpec refuses it.
func accepts(t *testing.T, spec string) fault.Plan {
	t.Helper()
	p, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return p
}

func TestFaultPlanProbabilityRange(t *testing.T) {
	rejects(t, "config-error=1.5", "config-error=-0.1", "readback-flip=x")
	p := accepts(t, "config-error=0,readback-flip=1")
	if p.Prob[fault.ReadbackFlip] != 1 {
		t.Fatalf("readback-flip probability = %v, want 1", p.Prob[fault.ReadbackFlip])
	}
}

func TestFaultPlanPointSumOverflow(t *testing.T) {
	rejects(t,
		"config-error=0.6,config-timeout=0.6",
		"config-error=0.4,config-timeout=0.4,pin-glitch=0.4",
	)
	// A sum of exactly 1 at one point is legal, and kinds drawn at
	// different points never share a sum.
	accepts(t, "config-error=0.5,config-timeout=0.5")
	accepts(t, "config-error=0.6,readback-flip=0.6,restore-mismatch=0.6")
}

func TestFaultPlanScriptOrdering(t *testing.T) {
	rejects(t,
		"config-error@0",
		"config-error@-1",
		"config-error@2,config-error@2",
		"pin-glitch@3,readback-flip@1,pin-glitch@3",
	)
	// The same attempt under two kinds is no repeat, and a script given
	// out of order is stored sorted.
	p := accepts(t, "pin-glitch@7,config-error@2,pin-glitch@1,pin-glitch@2")
	if got := p.Script[fault.PinGlitch]; !slices.Equal(got, []int{1, 2, 7}) {
		t.Fatalf("pin-glitch script = %v, want [1 2 7]", got)
	}
}

func TestFaultPlanUnknownKind(t *testing.T) {
	rejects(t, "bogus=1", "nosuch@1", "none=0.5", "none@1")
}

func TestFaultPlanRetryPolicy(t *testing.T) {
	rejects(t, "retries=99", "retries=x", "backoff=-1s", "backoff=x")
	if p := accepts(t, "retries=16,backoff=0s"); p.MaxAttempts() != 1+fault.MaxRetries {
		t.Fatalf("retries=%d MaxAttempts = %d", fault.MaxRetries, p.MaxAttempts())
	}
	if p := accepts(t, "retries=0"); p.MaxAttempts() != 1 {
		t.Fatalf("retries=0 MaxAttempts = %d, want 1", p.MaxAttempts())
	}
}

func TestFaultPlanCleanPlan(t *testing.T) {
	p := accepts(t, "seed=42,retries=2,backoff=50us,config-error=0.1,config-timeout=0.2,readback-flip@3")
	if p.Seed != 42 || p.Retries != 2 || p.Backoff != 50*sim.Microsecond {
		t.Fatalf("seed/retries/backoff = %d/%d/%v", p.Seed, p.Retries, p.Backoff)
	}
	if p.Prob[fault.ConfigError] != 0.1 || p.Prob[fault.ConfigTimeout] != 0.2 {
		t.Fatalf("probabilities = %v", p.Prob)
	}
	if got := p.Script[fault.ReadbackFlip]; !slices.Equal(got, []int{3}) {
		t.Fatalf("readback-flip script = %v, want [3]", got)
	}
}
