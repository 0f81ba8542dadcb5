//go:build race

package eval

// raceEnabled reports a -race build, whose instrumentation moves values to
// the heap that escape analysis otherwise keeps on the stack.
const raceEnabled = true
