// Package analysis is the custom static-analysis layer of the stack: a
// deliberately small reimplementation of the golang.org/x/tools
// go/analysis model on the standard library alone (the module carries no
// dependencies). PRs 3-5 left the correctness of the whole system
// resting on unwritten contracts — managers are pure policy that mutate
// fabric and metrics only through core.Ledger, deterministic paths never
// touch the wall clock or global rand, fault handling goes through typed
// escalation errors. The analyzers under this package turn those
// contracts into compile-time facts, the same way internal/lint turned
// the paper's netlist/bitstream invariants into a verifier.
//
// An Analyzer declares either a per-package Run or a whole-module
// RunModule (for cross-package invariants such as single-writer metric
// counters). The driver (cmd/vfpgavet) loads type-checked packages via
// internal/analysis/load and funnels diagnostics through the shared
// filtering in Run: test-file exclusion per analyzer, and inline
// suppression annotations of the form
//
//	//vfpgavet:ignore ledgeronly,simclock -- reason
//
// which silence the named analyzers (all of them when no names are
// given) on the annotation's own line and the line that follows.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// Analyzer is one named invariant checker. Exactly one of Run (invoked
// once per package) and RunModule (invoked once with every loaded
// package, for cross-package invariants) must be set.
type Analyzer struct {
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// IncludeTests keeps diagnostics located in _test.go files; most
	// analyzers drop them (tests may deliberately poke at internals).
	IncludeTests bool

	Run       func(*Pass) error
	RunModule func([]*Pass) error
}

// Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	sup    suppression
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Ignored reports whether a //vfpgavet:ignore annotation silences the
// pass's analyzer at pos. An analyzer that gives the annotation a meaning
// beyond a silenced diagnostic asks here: testonly counts an annotated
// declaration as used by the product.
func (p *Pass) Ignored(pos token.Pos) bool {
	return p.sup.covers(p.Fset.Position(pos), p.Analyzer.Name)
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders "file:line:col: message [analyzer]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Validate checks the analyzer set is well-formed: unique names, exactly
// one of Run/RunModule each.
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" {
			return fmt.Errorf("analysis: analyzer with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer %q", a.Name)
		}
		seen[a.Name] = true
		if (a.Run == nil) == (a.RunModule == nil) {
			return fmt.Errorf("analysis: analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
	}
	return nil
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Suppression annotations and per-
// analyzer test-file exclusion are applied here so the driver, the
// fixture harness and the CLI tests all share one filtering semantics.
func Run(pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if err := Validate(analyzers); err != nil {
		return nil, err
	}
	var diags []Diagnostic
	modulePasses := map[string][]*Pass{}
	for _, pkg := range pkgs {
		sup := suppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			a := a
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				sup:      sup,
			}
			pass.report = func(d Diagnostic) {
				if !a.IncludeTests && strings.HasSuffix(d.Pos.Filename, "_test.go") {
					return
				}
				if sup.covers(d.Pos, a.Name) {
					return
				}
				diags = append(diags, d)
			}
			if a.Run != nil {
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
				}
			} else {
				modulePasses[a.Name] = append(modulePasses[a.Name], pass)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if err := a.RunModule(modulePasses[a.Name]); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// --- suppression annotations ---

var ignoreRe = regexp.MustCompile(`^//\s*vfpgavet:ignore\b\s*([a-z0-9_,\s]*)`)

// suppression records, per file and line, which analyzers are silenced.
// The empty set value means "all analyzers".
type suppression map[string]map[int][]string

func suppressions(fset *token.FileSet, files []*ast.File) suppression {
	sup := suppression{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				var names []string
				for _, n := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					names = append(names, n)
				}
				pos := fset.Position(c.Pos())
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = map[int][]string{}
				}
				// The annotation covers its own line and the next one, so
				// it works both trailing a statement and on the line above.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if names == nil {
						sup[pos.Filename][line] = []string{}
					} else {
						sup[pos.Filename][line] = append(sup[pos.Filename][line], names...)
					}
				}
			}
		}
	}
	return sup
}

func (s suppression) covers(pos token.Position, analyzer string) bool {
	names, ok := s[pos.Filename][pos.Line]
	if !ok {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n == analyzer {
			return true
		}
	}
	return false
}
