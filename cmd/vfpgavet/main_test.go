package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles the vfpgavet binary once into the test tempdir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vfpgavet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIReportsEveryAnalyzer(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-tests=false", "./testdata/src/badpkg")
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, ee.Stderr)
	}
	got := string(out)
	for _, want := range []string{
		"badpkg.go:17:2: core.Metrics.Loads mutated outside internal/core",
		"[ledgeronly]",
		"wall clock in deterministic package: time.Now",
		"[simclock]",
		"matching on an error string with strings.Contains",
		"[typederr]",
		`metric series "vfpgad_orphan_total" has no registered family`,
		"[metricsonce]",
		"append to ks inside range over map with no sort of ks",
		"[mapiter]",
		"s.n accessed without s.mu held",
		"[lockproto]",
		"Helper is never used",
		"[testonly]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n"); n != 7 {
		t.Errorf("want 7 diagnostics, got %d:\n%s", n, got)
	}
}

func TestCLICleanRun(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-tests=false", "./testdata/src/cleanpkg")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("clean package reported findings: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("clean run produced output:\n%s", out)
	}
}

func TestCLIAnalyzerSubset(t *testing.T) {
	bin := buildBinary(t)
	// Only simclock selected: the other violations must not be reported.
	cmd := exec.Command(bin, "-tests=false", "-analyzers", "simclock", "./testdata/src/badpkg")
	out, _ := cmd.Output()
	got := string(out)
	if !strings.Contains(got, "[simclock]") || strings.Contains(got, "[mapiter]") {
		t.Fatalf("subset run output:\n%s", got)
	}
	// Unknown analyzer names are a usage error (exit 2).
	cmd = exec.Command(bin, "-analyzers", "nosuch", "./testdata/src/cleanpkg")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown analyzer accepted")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown analyzer: %v, want exit 2", err)
	}
}
