// Package peer is a layering fixture type-checked under the import path
// repro/internal/bench: loadgen shares its layer, and a peer is not
// below.
package peer

import (
	_ "repro/internal/fleet"
	_ "repro/internal/loadgen" // want `upward import: repro/internal/loadgen \(layer 12`
)
