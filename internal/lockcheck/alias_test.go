//go:build !lockcheck || !(amd64 || arm64)

package lockcheck

import "sync"

// The default build compiles the sync types.
var (
	_ *sync.Mutex   = (*Mutex)(nil)
	_ *sync.RWMutex = (*RWMutex)(nil)
)
