// Package upward is a layering fixture type-checked under the import
// path repro/internal/serve.
package upward

import (
	"fmt"

	_ "repro/internal/analysis/astq"
	_ "repro/internal/core"
	_ "repro/internal/fleet"   // want `upward import: repro/internal/fleet \(layer 11: internal/fleet\) from repro/internal/serve \(layer 10\)`
	_ "repro/internal/loadgen" // want `upward import: repro/internal/loadgen \(layer 12: internal/bench, internal/loadgen\) from repro/internal/serve \(layer 10\)`
	_ "repro/internal/stats"
)

var _ = fmt.Sprint
