//go:build race

package lint_test

// raceEnabled: the race detector's instrumentation defeats the escape
// analysis an allocation count depends on.
const raceEnabled = true
