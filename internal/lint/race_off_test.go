//go:build !race

package lint_test

const raceEnabled = false
