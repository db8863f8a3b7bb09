package fault

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// drive runs n decisions at each point and renders the outcomes, so two
// injectors can be compared for byte-identical behaviour.
func drive(in *Injector, n int) string {
	var out string
	for p := Point(0); p < numPoints; p++ {
		for i := 0; i < n; i++ {
			k, aux := in.Next(p)
			out += fmt.Sprintf("%v/%d:%v/%d\n", p, i, k, aux%8)
		}
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	plan, err := ParseSpec("seed=42,config-error=0.3,config-timeout=0.1,readback-flip=0.2,restore-mismatch=0.2,pin-glitch=0.05")
	if err != nil {
		t.Fatal(err)
	}
	a := drive(NewInjector(plan), 200)
	b := drive(NewInjector(plan), 200)
	if a != b {
		t.Fatal("same plan, different outcomes")
	}
	if drive(NewInjector(plan.Derive(1)), 200) == a {
		t.Fatal("derived plan reproduced the base stream")
	}
}

// TestInjectorPointIsolation pins the stream-per-point contract: extra
// draws at one point must not change another point's outcomes.
func TestInjectorPointIsolation(t *testing.T) {
	plan, _ := ParseSpec("seed=7,config-error=0.5,readback-flip=0.5")
	a := NewInjector(plan)
	b := NewInjector(plan)
	for i := 0; i < 50; i++ {
		a.Next(PointConfig) // perturb only the config stream
	}
	for i := 0; i < 50; i++ {
		ka, _ := a.Next(PointReadback)
		kb, _ := b.Next(PointReadback)
		if ka != kb {
			t.Fatalf("readback outcome %d diverged after config-only draws: %v vs %v", i, ka, kb)
		}
	}
}

func TestScriptedSchedule(t *testing.T) {
	plan, err := ParseSpec("seed=1,config-error@2,config-timeout@4,readback-flip@1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan)
	var got []Kind
	for i := 0; i < 5; i++ {
		k, _ := in.Next(PointConfig)
		got = append(got, k)
	}
	want := []Kind{None, ConfigError, None, ConfigTimeout, None}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("config attempt %d: got %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	if k, _ := in.Next(PointReadback); k != ReadbackFlip {
		t.Fatalf("readback attempt 1: got %v, want readback-flip", k)
	}
	if k, _ := in.Next(PointReadback); k != None {
		t.Fatalf("readback attempt 2: got %v, want none", k)
	}
	if c := in.counts; c[ConfigError] != 1 || c[ConfigTimeout] != 1 || c[ReadbackFlip] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if in.Summary() == "" {
		t.Fatal("summary empty after injections")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42,retries=2,backoff=50µs,config-error=0.1,readback-flip@3",
		"seed=1",
		"seed=9,retries=0,config-timeout=0.25,pin-glitch@1,pin-glitch@7",
	}
	for _, s := range specs {
		p, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		q, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", p.String(), s, err)
		}
		if p.String() != q.String() {
			t.Fatalf("round trip %q: %q != %q", s, p.String(), q.String())
		}
		if drive(NewInjector(p), 50) != drive(NewInjector(q), 50) {
			t.Fatalf("round trip of %q changed behaviour", s)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"seed=x",
		"bogus=1",
		"config-error=1.5",
		"config-error@0",
		"config-error@2,config-error@2", // an attempt fires at most once
		"pin-glitch@3,readback-flip@1,pin-glitch@3",
		"config-error=-0.1",
		"nosuch@1",
		"none=0.5",
		"retries=99",
		"backoff=-1s",
		"config-error=0.6,config-timeout=0.6", // config point sums > 1
		"no-equals-sign",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestRetryPolicy(t *testing.T) {
	var p Plan
	if got := p.MaxAttempts(); got != 1+DefaultRetries {
		t.Fatalf("default MaxAttempts = %d", got)
	}
	if got := p.RetryBackoff(1); got != DefaultBackoff {
		t.Fatalf("default backoff = %v", got)
	}
	p.Retries, p.Backoff = -1, 10*sim.Microsecond
	if got := p.MaxAttempts(); got != 1 {
		t.Fatalf("retries=-1 MaxAttempts = %d", got)
	}
	p.Retries = 2
	if got := p.RetryBackoff(3); got != 40*sim.Microsecond {
		t.Fatalf("backoff(3) = %v, want doubling", got)
	}
}

func TestAsEscalation(t *testing.T) {
	esc := &EscalationError{Kind: ConfigError, Op: "load", Circuit: "adder8", Attempts: 3}
	if _, ok := AsEscalation(esc); !ok {
		t.Fatal("raw value not recognized")
	}
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", esc))
	got, ok := AsEscalation(wrapped)
	if !ok || got != esc {
		t.Fatal("wrapped error not recognized")
	}
	if _, ok := AsEscalation(errors.New("plain")); ok {
		t.Fatal("plain error recognized")
	}
	if _, ok := AsEscalation("panic string"); ok {
		t.Fatal("string recognized")
	}
	//vfpgavet:ignore typederr -- this test asserts the rendered text itself
	if esc.Error() == "" || esc.Error()[:6] != "fault:" {
		t.Fatalf("error text %q lacks the typed prefix", esc.Error())
	}
}
