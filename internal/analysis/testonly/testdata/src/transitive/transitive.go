// Package transitive holds test-only code that reaches further names:
// each is flagged through the flagged declaration that uses it, unless
// product code reaches it too.
package transitive

func init() { _ = shared() }

func Model() int { return step(Seed) + shared() } // want `Model is used only by tests: move it`

func step(n int) int { return n + 1 } // want `step is used only by tests and by test-only Model`

var Seed = 4 // want `Seed is used only by tests and by test-only Model`

// shared is used by Model and by init: product code keeps it.
func shared() int { return 2 }

func Outer() int { return inner() } // want `Outer is never used`

func inner() int { return leaf() } // want `inner is used only by tests and by test-only Outer`

func leaf() int { return 0 } // want `leaf is used only by tests and by test-only inner`
