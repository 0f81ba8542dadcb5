//go:build !race

package overlay

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
