package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRuns are the documented invocations: the library table, one
// circuit's detail, and that circuit's segmentation. Each golden holds
// the invocation's whole stdout.
var goldenRuns = []struct{ name, args string }{
	{"library", ""},
	{"mul8", "-circuit mul8"},
	{"mul8_segment3", "-circuit mul8 -segment 3"},
}

func TestGoldenStdout(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli(strings.Fields(g.args), &stdout, &stderr); code != 0 {
				t.Fatalf("fabinfo %s: exit %d\n%s", g.args, code, stderr.String())
			}
			path := filepath.Join("testdata", g.name+".golden")
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
				t.Errorf("fabinfo %s: stdout differs from %s\ngot:\n%s", g.args, path, stdout.String())
			}
		})
	}
}

// TestUsageErrors pins the refusals: an unknown circuit and the
// per-circuit flags without -circuit exit 1 with one line on stderr and
// nothing past the device header on stdout; a bad flag exits 2.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args, stderr string
		code         int
	}{
		{"-circuit nosuch", "fabinfo: circuit \"nosuch\" not in library (try one of the summary names)\n", 1},
		{"-segment 2", "fabinfo: -dump and -segment require -circuit\n", 1},
		{"-nope", "", 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
			t.Errorf("fabinfo %s: exit %d, want %d", tc.args, code, tc.code)
		}
		if tc.code == 1 && stderr.String() != tc.stderr {
			t.Errorf("fabinfo %s: stderr %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
