//go:build !lockcheck || !(amd64 || arm64)

// Package lockcheck holds the production code's mutex types. In the
// default build they are the sync types; under the lockcheck build tag, a
// test build mode like -race, a validator checks lock order,
// re-acquisition and fabric legs sent under a lock (DESIGN.md §7).
package lockcheck

import "sync"

// Mutex and RWMutex are the sync types; under the lockcheck tag, checked.
type (
	Mutex   = sync.Mutex
	RWMutex = sync.RWMutex
)

// AssertNoneHeld panics, under the lockcheck tag, if the calling goroutine
// holds a checked mutex. simnet calls it once per fabric leg.
func AssertNoneHeld() {}
