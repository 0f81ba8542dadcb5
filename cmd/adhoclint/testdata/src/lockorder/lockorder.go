// Package lockorder exercises the whole-program lock-order analysis and
// the interprocedural half of lock-blocking.
package lockorder

import "sync"

// A and B form a lock-order cycle: (*A).Bump holds A.mu and locks B.mu
// directly, while (*B).Sync holds B.mu and reaches A.mu through touchA.
type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	a  *A
	n  int
}

func (a *A) Bump(b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle"
	b.n++
	b.mu.Unlock()
	a.n++
	a.mu.Unlock()
}

func (b *B) Sync() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.touchA()
}

// touchA acquires A.mu: the edge B.mu → A.mu exists only transitively.
func (b *B) touchA() {
	b.a.mu.Lock()
	b.a.n++
	b.a.mu.Unlock()
}

// Net mimics the simnet fabric: Call is a blocking operation by name.
type Net struct{}

func (Net) Call(x int) int { return x }

type S struct {
	mu  sync.Mutex
	net Net
	n   int
}

// Publish blocks interprocedurally: push does a fabric call.
func (s *S) Publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.push() // want "may block"
}

func (s *S) push() {
	s.net.Call(s.n)
}

// Report re-acquires the held mutex through a same-receiver call.
func (s *S) Report() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size() // want "locks it again"
}

func (s *S) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Requeue re-locks directly.
func (s *S) Requeue() {
	s.mu.Lock()
	s.mu.Lock() // want "self-deadlock"
	s.n++
	s.mu.Unlock()
	s.mu.Unlock()
}

// R is clean: recursive read locks of an RWMutex do not deadlock alone.
type R struct {
	mu sync.RWMutex
	n  int
}

func (r *R) Peek() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view()
}

func (r *R) view() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}
