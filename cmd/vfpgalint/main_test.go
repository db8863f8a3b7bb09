package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestDeviceGeometryBothOrNeither holds -cols and -rows to one rule:
// both 0 skips the device checks, two positive values bound every
// bitstream by the device, and any other pair is a usage error — never
// a run that silently skips the checks it was asked for.
func TestDeviceGeometryBothOrNeither(t *testing.T) {
	for _, c := range []struct {
		cols, rows int
		usage      bool
		code       int
		want       string
	}{
		{0, 0, false, 0, "1 circuit(s) linted: 0 error(s)"},
		{4, 4, false, 1, "region exceeds device"},
		{4, 0, true, 0, ""},
		{0, 16, true, 0, ""},
		{-3, 16, true, 0, ""},
		{4, -1, true, 0, ""},
	} {
		var out bytes.Buffer
		code, err := run(options{
			failOn: "error", circuits: "mul8", compile: true, seed: 1,
			cols: c.cols, rows: c.rows,
		}, &out)
		switch {
		case c.usage && (err == nil || out.Len() > 0):
			t.Errorf("-cols %d -rows %d: exit %d, error %v, output %q; want a usage error before any lint", c.cols, c.rows, code, err, out.String())
		case !c.usage && err != nil:
			t.Errorf("-cols %d -rows %d: %v", c.cols, c.rows, err)
		case !c.usage && (code != c.code || !strings.Contains(out.String(), c.want)):
			t.Errorf("-cols %d -rows %d: exit %d, want %d with %q in\n%s", c.cols, c.rows, code, c.code, c.want, out.String())
		}
	}
}

// TestRetiredPassesUnknown holds the passes over live state to a usage
// error, as any unknown name is: lint verifies the flow's artifacts, and
// a column map's rules (once partition-state, then region-state) and a
// configured device's (fabric-config) are stated by
// core.(*RegionMap).Check and fabric.(*Device).Check.
func TestRetiredPassesUnknown(t *testing.T) {
	for _, pass := range []string{"partition-state", "region-state", "fabric-config"} {
		var out bytes.Buffer
		_, err := run(options{failOn: "error", passes: pass, circuits: "mul8", compile: true, seed: 1}, &out)
		if want := fmt.Sprintf("lint: unknown pass %q", pass); fmt.Sprint(err) != want || out.Len() > 0 {
			t.Errorf("-passes %s: error %v, output %q; want %q before any lint", pass, err, out.String(), want)
		}
	}
}
