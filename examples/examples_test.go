// Package examples holds no code of its own: this test builds the
// example programs and pins what they print.
package examples

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	// What the examples import, directly or through it: a change under
	// internal/ must rebuild this test binary, not meet a cached pass.
	_ "repro/internal/baseline"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenStdout runs the five examples that assemble a whole board
// stack and compares each one's stdout with its committed golden. All
// five are deterministic: fixed seeds, virtual time only.
func TestGoldenStdout(t *testing.T) {
	names := []string{"diagnosis", "multiboard", "multimedia", "telecom", "timeshare"}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./diagnosis", "./multiboard", "./multimedia", "./telecom", "./timeshare")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			// Opening the source ties the test cache to it as well.
			if _, err := os.ReadFile(filepath.Join(name, "main.go")); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s: stdout differs from %s\ngot:\n%s", name, path, stdout.String())
			}
		})
	}
}
