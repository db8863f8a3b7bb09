//go:build race

package serve

// raceEnabled: the race detector's instrumentation defeats the escape
// analysis an allocation count depends on.
const raceEnabled = true
