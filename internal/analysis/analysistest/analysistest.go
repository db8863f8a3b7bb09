// Package analysistest runs one analyzer over a fixture directory and
// checks its diagnostics against expectations embedded in the fixture
// source, mirroring golang.org/x/tools/go/analysis/analysistest on the
// in-repo framework.
//
// Expectations are comments of the form
//
//	m.Loads++ // want `outside internal/core`
//	bad()     // want `first finding` `second finding`
//
// Each backquoted string is a regular expression that must match the
// message of exactly one diagnostic reported on that line; lines without
// a want comment must produce no diagnostics, so every fixture is both a
// positive and a negative test.
//
// Fixtures live under testdata/src/<name>/ and are ordinary compilable
// Go packages: they may import anything in this module plus the std
// packages baked into the shared index (time, math/rand, fmt, ...).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// stdExtras are std packages fixtures may import even though the module
// itself does not depend on them.
var stdExtras = []string{
	"errors", "fmt", "math/rand", "math/rand/v2", "os", "sort", "strings", "time",
}

var (
	indexOnce sync.Once
	indexVal  *load.Index
	indexErr  error
)

// index returns the shared export-data index over the whole module (plus
// stdExtras), built once per test binary.
func index(t *testing.T) *load.Index {
	t.Helper()
	indexOnce.Do(func() {
		indexVal, _, indexErr = load.Load(load.Options{Dir: moduleRoot()},
			append([]string{"./..."}, stdExtras...)...)
	})
	if indexErr != nil {
		t.Fatalf("analysistest: building index: %v", indexErr)
	}
	return indexVal
}

// moduleRoot locates the repository root relative to this source file,
// so fixture tests work from any package directory.
func moduleRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", "..", ".."))
}

// Run analyzes the fixture package in dir (relative to the calling
// test's package directory, conventionally "testdata/src/<name>") under
// the import path asPath and compares diagnostics against the fixture's
// want comments. Pass asPath "" for a neutral fixture path.
//
//vfpgavet:ignore testonly -- the fixture harness every analyzer's tests share
func Run(t *testing.T, a *analysis.Analyzer, dir, asPath string) {
	t.Helper()
	ix := index(t)
	if asPath == "" {
		asPath = "repro/fixture/" + filepath.Base(dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkg, err := ix.CheckDir(abs, asPath)
	if err != nil {
		t.Fatalf("analysistest: loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*load.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}
	check(t, pkg.Fset, pkg.Files, diags)
}

// want is one expectation: a position and a message pattern.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]*)`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("analysistest: %s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	var errs []string
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.matched {
			errs = append(errs, fmt.Sprintf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re))
		}
	}
	for _, e := range errs {
		t.Error(e)
	}
}
