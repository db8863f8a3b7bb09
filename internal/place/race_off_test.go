//go:build !race

package place

const raceEnabled = false
