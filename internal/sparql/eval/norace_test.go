//go:build !race

package eval

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
