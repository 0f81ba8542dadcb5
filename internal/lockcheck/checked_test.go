//go:build lockcheck && (amd64 || arm64)

package lockcheck

import (
	"strings"
	"sync"
	"testing"
)

// pair's methods lock its fields through the receiver, so its mutexes are
// the classes lockcheck.pair.a and lockcheck.pair.b.
type pair struct {
	a Mutex
	b RWMutex
}

func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.RLock()
	defer p.b.RUnlock()
	p.a.Lock()
	p.a.Unlock()
}

func (p *pair) readUnderWrite() {
	p.b.Lock()
	defer p.b.Unlock()
	p.b.RLock()
}

func (p *pair) send() {
	p.a.Lock()
	defer p.a.Unlock()
	AssertNoneHeld()
}

func mustPanic(t *testing.T, f func(), frags ...string) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if msg == "" {
			t.Fatalf("no panic; want one containing %q", frags)
		}
		for _, frag := range frags {
			if !strings.Contains(msg, frag) {
				t.Errorf("panic %q lacks %q", msg, frag)
			}
		}
	}()
	f()
}

func TestInversionNamesBothWitnesses(t *testing.T) {
	var p pair
	p.ab()
	mustPanic(t, p.ba,
		"lock order cycle lockcheck.pair.b → lockcheck.pair.a → lockcheck.pair.b",
		"lockcheck.pair.a taken at checked_test.go:28 (lockcheck.(*pair).ba) while holding lockcheck.pair.b (locked at checked_test.go:26",
		"lockcheck.pair.b taken at checked_test.go:20 (lockcheck.(*pair).ab) while holding lockcheck.pair.a (locked at checked_test.go:19")
	p.ab() // the recorded order still holds; the refused edge was not kept
}

func TestReadLockUnderWriteLock(t *testing.T) {
	var p pair
	mustPanic(t, p.readUnderWrite, "lockcheck.pair.b re-acquired at checked_test.go:35", "holds it since checked_test.go:33")
}

func TestFabricLegUnderLock(t *testing.T) {
	var p pair
	mustPanic(t, p.send, "lockcheck.pair.a held at checked_test.go:39 (lockcheck.(*pair).send) while ", "sends a fabric leg")
	AssertNoneHeld()
}

// A lock held by one goroutine does not hold up another's legs or orders.
func TestHeldSetsArePerGoroutine(t *testing.T) {
	var p pair
	p.a.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		AssertNoneHeld()
		p.b.Lock()
		p.b.Unlock()
	}()
	wg.Wait()
	p.a.Unlock()
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	var p pair
	p.ab()
	if n := testing.AllocsPerRun(100, p.ab); n != 0 {
		t.Errorf("a checked lock pair allocates %v objects, want 0", n)
	}
}
