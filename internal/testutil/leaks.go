// Package testutil carries shared helpers for the package test suites.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Runner is the subset of *testing.M that VerifyNoLeaks drives.
type Runner interface {
	Run() int
}

// VerifyNoLeaks runs a package's test suite and fails the run when
// goroutines outlive it. The subsystems (overlay, simnet, chord, dqp, rdf)
// run entirely in-process, so after their tests return every goroutine
// they started must be gone; a straggler is a real leak under churn. The
// check compares goroutine identities, not counts: a goroutine that was
// already running when the suite began (an earlier test's, still
// unwinding) may exit during it without hiding one the suite leaked. A
// short retry window absorbs goroutines that are mid-exit when Run returns
// (the testing package's own workers unwinding).
//
// Use from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaks(m)) }
func VerifyNoLeaks(m Runner) int {
	before := goroutines()
	code := m.Run()
	if code != 0 {
		return code
	}
	var leaked []string
	for i := 0; i < 50; i++ {
		leaked = leaked[:0]
		for id, stack := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return code
		}
		time.Sleep(10 * time.Millisecond) //adhoclint:ignore determinism exiting goroutines need real scheduler time to unwind
	}
	sort.Strings(leaked)
	fmt.Fprintf(os.Stderr, "testutil: goroutine leak: %d started by the suite still running\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
	return 1
}

// goroutines returns the stack of every running goroutine by its
// "goroutine N" header; goroutine IDs are never reused.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(stack, " [")
		out[id] = stack
	}
	return out
}
