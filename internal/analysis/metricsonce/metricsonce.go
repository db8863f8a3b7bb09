// Package metricsonce enforces single-site accounting, module-wide:
//
//   - every core.Metrics field is written from exactly one file (today
//     ledger.go for the op counters, engine.go for Util) — a counter with
//     two accounting files double-counts or drifts, which is exactly the
//     bug class the conformance audit exists to catch;
//   - the /metrics exposition is well-formed at compile time: every
//     family name matches ^vfpgad?_[a-z0-9_]+$, carries a non-empty help
//     string and a valid Prometheus type, is declared at most once, and
//     every series emitted under a literal name has a declared family.
//
// Both halves are cross-package properties, so the analyzer runs once
// over the whole module (RunModule) rather than per package. Sites in
// _test.go files do not count: tests prime counters deliberately.
// Exposition names that are not string constants are skipped; the only
// such sites are a summary's _sum and _count lines, whose names are built
// from the family's. The writer is recognised by type and method name,
// whatever their case.
package metricsonce

import (
	"go/ast"
	"go/constant"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
	"repro/internal/analysis/ledgeronly"
)

// Analyzer is the metricsonce analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "metricsonce",
	Doc:       "each core.Metrics field written from one file; /metrics families registered once, named and typed correctly",
	RunModule: runModule,
}

var familyNameRe = regexp.MustCompile(`^vfpgad?_[a-z0-9_]+$`)

// familyTypes are the Prometheus exposition metric types.
var familyTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

type site struct {
	pass *analysis.Pass
	pos  token.Pos
	file string // absolute filename
}

func runModule(passes []*analysis.Pass) error {
	checkFieldWriters(passes)
	checkExposition(passes)
	return nil
}

// checkFieldWriters groups every core.Metrics write site by field and
// reports the sites outside the field's primary accounting file (the one
// holding the most sites; ties break to the lexicographically first).
func checkFieldWriters(passes []*analysis.Pass) {
	byField := map[string][]site{}
	var order []string
	for _, pass := range passes {
		for _, w := range ledgeronly.MetricsWrites(pass) {
			file := pass.Fset.Position(w.Pos).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			if _, seen := byField[w.Field]; !seen {
				order = append(order, w.Field)
			}
			byField[w.Field] = append(byField[w.Field], site{pass: pass, pos: w.Pos, file: file})
		}
	}
	for _, field := range order {
		sites := byField[field]
		counts := map[string]int{}
		for _, s := range sites {
			counts[s.file]++
		}
		if len(counts) < 2 {
			continue
		}
		primary := ""
		for file, n := range counts {
			if primary == "" || n > counts[primary] || (n == counts[primary] && file < primary) {
				primary = file
			}
		}
		for _, s := range sites {
			if s.file == primary {
				continue
			}
			s.pass.Reportf(s.pos,
				"core.Metrics.%s written here and in %s; each counter has a single accounting file",
				field, filepath.Base(primary))
		}
	}
}

type familyDecl struct {
	site
	name string
}

// checkExposition validates MetricsWriter.Family/Series/Int/Float call sites.
func checkExposition(passes []*analysis.Pass) {
	var families []familyDecl
	declared := map[string]site{}
	type use struct {
		site
		name string
	}
	var uses []use

	for _, pass := range passes {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				named := astq.Named(pass.Info.TypeOf(sel.X))
				if named == nil || !strings.EqualFold(named.Obj().Name(), "metricsWriter") {
					return true
				}
				name, isConst := constString(pass, call.Args[0])
				if !isConst {
					return true
				}
				s := site{pass: pass, pos: call.Pos(), file: pass.Fset.Position(call.Pos()).Filename}
				switch strings.ToLower(sel.Sel.Name) {
				case "family":
					families = append(families, familyDecl{site: s, name: name})
					if len(call.Args) >= 3 {
						checkFamilyArgs(pass, call, name)
					}
				case "series", "int", "float":
					uses = append(uses, use{site: s, name: name})
				}
				return true
			})
		}
	}

	for _, fam := range families {
		if first, dup := declared[fam.name]; dup {
			fam.pass.Reportf(fam.pos, "metric family %q declared more than once (first at %s)",
				fam.name, fam.pass.Fset.Position(first.pos))
			continue
		}
		declared[fam.name] = fam.site
	}
	for _, u := range uses {
		if _, ok := declared[u.name]; !ok {
			u.pass.Reportf(u.pos, "metric series %q has no registered family; declare it with family(name, help, type) first", u.name)
		}
	}
}

func checkFamilyArgs(pass *analysis.Pass, call *ast.CallExpr, name string) {
	if !familyNameRe.MatchString(name) {
		pass.Reportf(call.Pos(), "metric family %q does not match ^vfpgad?_[a-z0-9_]+$", name)
	}
	if help, ok := constString(pass, call.Args[1]); ok && help == "" {
		pass.Reportf(call.Pos(), "metric family %q has an empty help string", name)
	}
	if typ, ok := constString(pass, call.Args[2]); ok && !familyTypes[typ] {
		pass.Reportf(call.Pos(), "metric family %q has invalid type %q (want counter, gauge, histogram, summary or untyped)", name, typ)
	}
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
