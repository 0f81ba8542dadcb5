//go:build !checked

// Package constrained declares its mutex type once per build tag, as
// lockcheck does: the loader must keep only the untagged file.
package constrained

import "sync"

type Mutex = sync.Mutex
