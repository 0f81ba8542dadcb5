//go:build lockcheck && (amd64 || arm64)

package lockcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Mutex and RWMutex are the sync types, their acquisitions checked.
type Mutex struct {
	mu    sync.Mutex
	class uint16 // its class once a site names it
}

func (m *Mutex) Lock()   { acquire(uintptr(unsafe.Pointer(m)), &m.class); m.mu.Lock() }
func (m *Mutex) Unlock() { release(uintptr(unsafe.Pointer(m))); m.mu.Unlock() }

type RWMutex struct {
	mu    sync.RWMutex
	class uint16 // its class once a site names it
}

func (m *RWMutex) Lock()    { acquire(uintptr(unsafe.Pointer(m)), &m.class); m.mu.Lock() }
func (m *RWMutex) Unlock()  { release(uintptr(unsafe.Pointer(m))); m.mu.Unlock() }
func (m *RWMutex) RLock()   { acquire(uintptr(unsafe.Pointer(m)), &m.class); m.mu.RLock() }
func (m *RWMutex) RUnlock() { release(uintptr(unsafe.Pointer(m))); m.mu.RUnlock() }

// getg returns the running goroutine's g pointer (getg_*.s), its identity.
func getg() uintptr

// A class is one mutex declaration, "pkg.Type.field" or "pkg.name" (up to
// 127). A site that locks a field other than through its owner's receiver
// (n.Table.mu, a test peeking at a node) names none (0): the mutex keeps
// the class its owner's methods gave it, if any; classless, it is checked
// for re-acquisition and fabric legs only.
//
// gslot is one goroutine's held set, kept between locks so that a lock
// allocates nothing; a goroutine reusing a g pointer inherits it, empty.
type gslot struct {
	g, n uintptr
	held [8]struct {
		mu, pc uintptr
		class  uint16
	}
}

// The lock path reads slots, sites and after unsynchronized (go:norace): a
// slot is its goroutine's, and the tables only grow, under slow. So the
// race detector sees no lock of the validator's on the lock path.
var (
	slots [1 << 12]gslot
	sites [1 << 11]uintptr // open-addressed by pc: pc | class<<48
	after [128][2]uint64   // after[a] bit b: b was taken holding a

	slow    sync.Mutex // guards the rest
	names   = []string{""}
	witness = map[[2]uint16][2]uintptr{} // edge → the sites of its first pair
	lockRe  = regexp.MustCompile(`(?:^|[^\w.])(?:(\w+)\.)?(\w+)\.R?Lock\(\)`)
	recvRe  = regexp.MustCompile(`^func (?:\((\w+) \*?(\w+))?`)
)

//go:norace
func self(claim bool) *gslot {
	g := getg()
	for i, n := (g>>4)*0x9E3779B97F4A7C15>>52, 0; n < len(slots); i, n = (i+1)%uintptr(len(slots)), n+1 {
		if s := &slots[i]; s.g == g || s.g == 0 && claim && atomic.CompareAndSwapUintptr(&s.g, 0, g) {
			return s
		} else if s.g == 0 && !claim {
			return nil
		}
	}
	panic("lockcheck: no free goroutine slot")
}

//go:norace
func acquire(mu uintptr, class *uint16) {
	var pc [1]uintptr
	runtime.Callers(3, pc[:])
	s, c := self(true), classAt(pc[0])
	if c == 0 {
		c = *class
	}
	*class = c
	for _, h := range s.held[:s.n] {
		if h.mu == mu {
			fail("lockcheck: %s re-acquired at %s; this goroutine holds it since %s", c, pc[0], h.pc)
		}
		if c != 0 && h.class != 0 && after[h.class][c/64]&(1<<(c%64)) == 0 {
			addEdge(h.class, c, h.pc, pc[0])
		}
	}
	s.held[s.n].mu, s.held[s.n].pc, s.held[s.n].class = mu, pc[0], c
	s.n++
}

//go:norace
func release(mu uintptr) {
	for s, i := self(false), 0; s != nil && i < int(s.n); i++ {
		if h := int(s.n) - 1 - i; s.held[h].mu == mu {
			copy(s.held[h:s.n], s.held[h+1:s.n])
			s.n--
			return
		}
	}
	panic("lockcheck: unlock of a mutex this goroutine does not hold")
}

// AssertNoneHeld panics if the calling goroutine holds a checked mutex.
//
//go:norace
func AssertNoneHeld() {
	if s := self(false); s != nil && s.n > 0 {
		var pc [1]uintptr
		runtime.Callers(4, pc[:]) // the caller of the fabric method
		fail("lockcheck: %[1]s held at %[2]s while %[3]s sends a fabric leg", s.held[s.n-1].class, s.held[s.n-1].pc, pc[0])
	}
}

//go:norace
func classAt(pc uintptr) uint16 {
	for i := pc * 0x9E3779B97F4A7C15 >> 53; ; i = (i + 1) % uintptr(len(sites)) {
		if e := sites[i]; e == 0 {
			return nameSite(pc)
		} else if e&(1<<48-1) == pc {
			return uint16(e >> 48)
		}
	}
}

// nameSite classes a lock site the first time it runs, reading the locked
// expression off its source line: "s.mu.Lock()" in a method of receiver s
// names s's type's field mu, "regexCache.Lock()" the package-level mutex.
// A site whose source cannot be read is its own class.
func nameSite(pc uintptr) uint16 {
	slow.Lock()
	defer slow.Unlock()
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	pkg, _, _ := strings.Cut(f.Function[strings.LastIndexByte(f.Function, '/')+1:], ".")
	name := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
	if data, err := os.ReadFile(f.File); err == nil && f.Line > 0 && strings.Count(string(data), "\n") >= f.Line-1 {
		lines, recv := strings.Split(string(data), "\n")[:f.Line], []string(nil)
		for i := len(lines) - 1; i >= 0 && recv == nil; i-- {
			recv = recvRe.FindStringSubmatch(lines[i])
		}
		name = ""
		if m := lockRe.FindStringSubmatch(lines[f.Line-1]); m != nil && m[1] == "" {
			name = pkg + "." + m[2]
		} else if m != nil && recv != nil && m[1] == recv[1] {
			name = pkg + "." + recv[2] + "." + m[2]
		}
	}
	c := slices.Index(names, name)
	if c < 0 {
		c, names = len(names), append(names, name)
	}
	i := pc * 0x9E3779B97F4A7C15 >> 53
	for ; sites[i] != 0; i = (i + 1) % uintptr(len(sites)) {
	}
	sites[i] = pc | uintptr(c)<<48
	return uint16(c)
}

// addEdge records to taken under from, or panics if to precedes from.
func addEdge(from, to uint16, fromPC, toPC uintptr) {
	slow.Lock()
	defer slow.Unlock()
	witness[[2]uint16{from, to}] = [2]uintptr{fromPC, toPC}
	if path := pathTo(to, from, map[uint16]bool{}); path != nil {
		path = append([]uint16{from}, path...)
		msg, lines := "lockcheck: lock order cycle "+names[from], ""
		for i := 0; i+1 < len(path); i++ {
			w := witness[[2]uint16{path[i], path[i+1]}]
			msg += " → " + names[path[i+1]]
			lines += fmt.Sprintf("\n  %s taken at %s while holding %s (locked at %s)", names[path[i+1]], site(w[1]), names[path[i]], site(w[0]))
		}
		panic(msg + lines)
	}
	after[from][to/64] |= 1 << (to % 64)
}

// pathTo returns the classes of a recorded path from a to b, or nil.
func pathTo(a, b uint16, seen map[uint16]bool) []uint16 {
	if a == b {
		return []uint16{b}
	}
	seen[a] = true
	for c := uint16(1); c < uint16(len(names)); c++ {
		if after[a][c/64]&(1<<(c%64)) != 0 && !seen[c] {
			if path := pathTo(c, b, seen); path != nil {
				return append([]uint16{a}, path...)
			}
		}
	}
	return nil
}

// fail panics naming a class and two sites, read under slow.
func fail(format string, c uint16, pc, pc2 uintptr) {
	slow.Lock()
	defer slow.Unlock()
	panic(fmt.Sprintf(format, names[c], site(pc), site(pc2)))
}

func site(pc uintptr) string {
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	return fmt.Sprintf("%s:%d (%s)", filepath.Base(f.File), f.Line, f.Function[strings.LastIndexByte(f.Function, '/')+1:])
}
