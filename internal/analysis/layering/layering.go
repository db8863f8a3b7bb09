// Package layering holds the module's package order and rejects any
// import that does not point strictly down it. The order is the import
// graph's own: a package may be imported only by packages of a higher
// layer, never by one of its own layer or below, so the stack stays a
// stack — a model (loadgen) can sit on the daemon (serve) it predicts,
// and the daemon cannot quietly grow a dependency on the model.
package layering

import (
	"strconv"
	"strings"

	"repro/internal/analysis"
)

const module = "repro"

// layers is the order, lowest first; a name stands for the package at
// module/name and everything under it. The data-flow order
// benchmark/README.md draws differs in two places (compile before
// fabric, lint after core); this is the order imports obey (DESIGN §5).
// internal/analysis is a tree of its own and is not ranked.
var layers = [][]string{
	{"internal/flat", "internal/rng", "internal/sim", "internal/stats", "internal/version"},
	{"internal/fabric", "internal/fault", "internal/hostos", "internal/netlist", "internal/trace"},
	{"internal/techmap", "internal/workload"},
	{"internal/place"},
	{"internal/route"},
	{"internal/bitstream"},
	{"internal/lint"},
	{"internal/compile"},
	{"internal/core"},
	{"internal/baseline"},
	{"internal/serve"},
	{"internal/fleet"},
	{"internal/bench", "internal/loadgen"},
	{"cmd", "examples", "benchmark"},
}

// Analyzer is the layering analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc:  "forbid imports of an equal or higher layer: packages import strictly downward",
	Run:  run,
}

// under reports whether path is the package at root or below it.
func under(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// layerOf returns path's layer. ranked is false for packages the order
// does not cover: everything outside the module, the analysis tree and
// the module root (which holds only the root benchmarks). unknown marks
// a package under internal/ that the table should list and does not.
func layerOf(path string) (layer int, ranked, unknown bool) {
	if !under(path, module) || path == module || under(path, module+"/internal/analysis") {
		return 0, false, false
	}
	for i, names := range layers {
		for _, name := range names {
			if under(path, module+"/"+name) {
				return i, true, false
			}
		}
	}
	return 0, false, under(path, module+"/internal")
}

func run(pass *analysis.Pass) error {
	self, ranked, unknown := layerOf(pass.Pkg.Path())
	if unknown && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Name.Pos(), "package %s has no layer: add it to the table in internal/analysis/layering", pass.Pkg.Path())
	}
	if !ranked {
		return nil
	}
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			switch layer, ranked, unknown := layerOf(path); {
			case unknown:
				pass.Reportf(spec.Pos(), "import of %s, which has no layer: add it to the table in internal/analysis/layering", path)
			case ranked && layer >= self:
				pass.Reportf(spec.Pos(), "upward import: %s (layer %d: %s) from %s (layer %d); packages import strictly downward",
					path, layer, strings.Join(layers[layer], ", "), pass.Pkg.Path(), self)
			}
		}
	}
	return nil
}
