// Package testutil carries shared helpers for the package test suites.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Runner is the subset of *testing.M that VerifyNoLeaks drives.
type Runner interface {
	Run() int
}

// VerifyNoLeaks runs a package's test suite and fails the run when
// goroutines outlive it. The subsystems (overlay, simnet, chord, dqp, rdf)
// run entirely in-process, so after their tests return every goroutine
// they started must be gone; a straggler is a real leak under churn. A
// short retry window absorbs goroutines that are mid-exit when Run returns
// (the testing package's own workers unwinding).
//
// Use from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaks(m)) }
func VerifyNoLeaks(m Runner) int {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code != 0 {
		return code
	}
	after := 0
	for i := 0; i < 50; i++ {
		if after = runtime.NumGoroutine(); after <= before {
			return code
		}
		time.Sleep(10 * time.Millisecond) //adhoclint:ignore determinism exiting goroutines need real scheduler time to unwind
	}
	fmt.Fprintf(os.Stderr, "testutil: goroutine leak: %d running before the suite, %d after\n", before, after)
	return 1
}
