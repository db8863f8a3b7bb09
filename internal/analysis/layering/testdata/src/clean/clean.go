// Package clean is a layering fixture type-checked under the import
// path repro/internal/fleet: everything it imports sits below it.
package clean

import (
	"sort"

	_ "repro/internal/core"
	_ "repro/internal/serve"
	_ "repro/internal/sim"
)

var _ = sort.Ints
