package main

import (
	"bytes"
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
