//go:build !race

package bench

const raceEnabled = false
