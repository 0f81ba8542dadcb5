// Package clean is the zero-findings fixture: idiomatic code following
// every convention, including one deliberate violation suppressed by an
// adhoclint:ignore directive.
package clean

import (
	"errors"
	"sync"
	"time"
)

type store struct {
	cfg int // before mu: set once at construction

	mu sync.RWMutex
	m  map[string]int
}

func newStore(cfg int) *store {
	return &store{cfg: cfg, m: map[string]int{}}
}

func (s *store) Get(k string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *store) Put(k string, v int) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

func (s *store) Config() int { return s.cfg }

func (s *store) Fill(kv map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range kv {
		s.putLocked(k, v)
	}
}

func (s *store) putLocked(k string, v int) { s.m[k] = v }

func pace() {
	time.Sleep(time.Millisecond) //adhoclint:ignore determinism deliberate wall-clock pacing to prove the directive works
}

func fill(work []string, s *store) {
	for i, w := range work {
		s.Put(w, i)
	}
}

func checkAll(s *store, keys []string) error {
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			return errors.New("missing " + k)
		}
	}
	return nil
}

func use() error {
	s := newStore(1)
	pace()
	fill([]string{"a", "b"}, s)
	return checkAll(s, []string{"a", "b"})
}
