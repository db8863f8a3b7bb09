// Package ledgeronly enforces the PR 3 architecture rule: core.Ledger is
// the only place that performs fabric configuration/readback writes and
// bumps core.Metrics. Managers — inside core and in baseline — are pure
// policy; the serve and bench layers consume snapshots. Concretely:
//
//   - no package outside internal/core may write a core.Metrics field,
//     its embedded Counts' included;
//   - no package outside internal/core, internal/fabric and
//     internal/bitstream may call the fabric configuration/readback
//     mutators (Device.WriteCLB/ClearRegion/WritePin/WriteRegionState/
//     ReadRegionState, Bitstream.Apply/ApplyPage);
//   - inside internal/core both are confined to ledger.go and engine.go
//     (the transaction layer itself); manager files route through Ledger
//     ops.
//
// The examples/ demos deliberately drive a raw device below the manager
// layer and are exempt. MetricsSnapshot values are plain data and may be
// accumulated anywhere.
package ledgeronly

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/astq"
)

const corePath = "repro/internal/core"

// coreFiles are the files inside internal/core allowed to touch metrics
// and the device: the ledger transaction layer and the engine it sits in.
var coreFiles = map[string]bool{"ledger.go": true, "engine.go": true}

// deviceMutators are the fabric configuration/readback entry points.
var deviceMutators = map[string]bool{
	"WriteCLB": true, "ClearRegion": true, "WritePin": true,
	"WriteRegionState": true, "ReadRegionState": true,
}

// bitstreamMutators write a configuration image into a device.
var bitstreamMutators = map[string]bool{"Apply": true, "ApplyPage": true}

// Analyzer is the ledgeronly analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ledgeronly",
	Doc:  "fabric/metrics mutation only through core.Ledger (ledger.go/engine.go); managers stay pure policy",
	Run:  run,
}

// isMetricsBase reports whether e is a core.Metrics or the Counts
// embedded in one, so m.Loads and m.Counts.Loads are one field.
func isMetricsBase(pass *analysis.Pass, e ast.Expr) bool {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && sel.Sel.Name == "Counts" {
		e = sel.X
	}
	return astq.IsNamed(pass.Info.TypeOf(e), corePath, "Metrics")
}

// MetricsWrite is one site that mutates a core.Metrics field.
type MetricsWrite struct {
	Pos   token.Pos
	Field string
}

// MetricsWrites finds every mutation of a core.Metrics field in the
// pass's files: assignments and IncDec on a Metrics field.
func MetricsWrites(pass *analysis.Pass) []MetricsWrite {
	var writes []MetricsWrite
	record := func(pos token.Pos, field string) {
		writes = append(writes, MetricsWrite{Pos: pos, Field: field})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isMetricsBase(pass, sel.X) {
						record(sel.Pos(), sel.Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && isMetricsBase(pass, sel.X) {
					record(sel.Pos(), sel.Sel.Name)
				}
			}
			return true
		})
	}
	return writes
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "repro/examples/") {
		return nil
	}
	inCore := path == corePath
	allowedInFile := func(pos token.Pos) bool {
		if !inCore {
			return false
		}
		return coreFiles[filepath.Base(pass.Fset.Position(pos).Filename)]
	}

	for _, w := range MetricsWrites(pass) {
		if allowedInFile(w.Pos) {
			continue
		}
		if inCore {
			pass.Reportf(w.Pos, "core.Metrics.%s mutated outside the ledger; managers are pure policy — route through a Ledger op", w.Field)
		} else {
			pass.Reportf(w.Pos, "core.Metrics.%s mutated outside internal/core; only the ledger accounts device metrics", w.Field)
		}
	}

	if path == "repro/internal/fabric" || path == "repro/internal/bitstream" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astq.Callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var what string
			switch {
			case fn.Pkg().Path() == "repro/internal/fabric" && deviceMutators[fn.Name()]:
				what = "fabric.Device." + fn.Name()
			case fn.Pkg().Path() == "repro/internal/bitstream" && bitstreamMutators[fn.Name()]:
				what = "bitstream." + fn.Name()
			default:
				return true
			}
			if allowedInFile(call.Pos()) {
				return true
			}
			if inCore {
				pass.Reportf(call.Pos(), "%s called outside the ledger; managers are pure policy — route through a Ledger op", what)
			} else {
				pass.Reportf(call.Pos(), "%s called outside internal/core; device configuration and readback go through core.Ledger", what)
			}
			return true
		})
	}
	return nil
}
