//go:build race

package bench

// raceEnabled: the race detector's instrumentation defeats the escape
// analysis an allocation count depends on.
const raceEnabled = true
