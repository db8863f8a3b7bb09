//go:build !race

package techmap

const raceEnabled = false
