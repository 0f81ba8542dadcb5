package guarded

import "sync"

// aliasMutex is how a mutex type of another package reaches a field in
// the build the linter loads (lockcheck.Mutex = sync.Mutex): the field is
// a mutex all the same.
type aliasMutex = sync.Mutex

type Gauge struct {
	mu aliasMutex
	v  int
}

func (g *Gauge) Get() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) Set(v int) {
	g.v = v // want "g.v is guarded by g.mu"
}
