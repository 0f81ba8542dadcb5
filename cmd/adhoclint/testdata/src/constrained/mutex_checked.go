//go:build checked

package constrained

import "sync"

type Mutex struct{ mu sync.Mutex }

func (m *Mutex) Lock()   { m.mu.Lock() }
func (m *Mutex) Unlock() { m.mu.Unlock() }
