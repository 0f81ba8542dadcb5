package overlay

// Workload-adaptive hot-key reads (owner side).
//
// The paper's two-level location table places each key on exactly one
// Chord successor, so a skewed workload turns the successor of a popular
// key into a hotspot. Following the workload-adaptivity idea of AdPart /
// PHD-Store, an index node counts the lookups it serves per key with a
// half-life-decayed counter (deterministic: decay is computed in whole
// virtual-time windows from integer VTimes, never from wall clocks) and,
// past a threshold, advertises the holders its write chain keeps copies
// of the key's row on (Sect. III-D's R − 1 replica successors). Adaptive
// initiators read the nearest of the owner and those holders directly
// next time, under a digest of the row the owner returned: a holder whose
// row differs answers a miss (hotclient.go). No copy is pushed and none is
// kept apart from the location tables, so nothing else needs keeping
// coherent.

import (
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/simnet"
)

// The hot-key detector's constants.
const (
	// hotThreshold is the decayed lookup count at which a key turns hot.
	hotThreshold = 4
	// hotHalfLife is the virtual-time window after which counts halve.
	hotHalfLife = simnet.VTime(2 * time.Second)
)

// hotCounter is one key's decayed lookup counter. last anchors the decay
// window; counts halve once per whole hotHalfLife elapsed since it.
type hotCounter struct {
	count int
	last  simnet.VTime
}

// hotState is the per-node hot-key detector. mu is a leaf lock guarding
// counters.
type hotState struct {
	mu       lockcheck.Mutex
	counters map[chord.ID]hotCounter
}

// newHotState is an adaptive index node's detector, empty.
func newHotState() *hotState {
	return &hotState{counters: make(map[chord.ID]hotCounter)}
}

// noteLookup bumps the key's decayed counter at virtual time `at` and
// reports whether the key is (still) past the hot threshold.
//
// An extra bump from a retried lookup only hastens an already-converging
// promotion.
func (h *hotState) noteLookup(key chord.ID, at simnet.VTime) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.counters[key]
	if c.count > 0 && at > c.last {
		steps := int64(at-c.last) / int64(hotHalfLife)
		if steps > 0 {
			if steps > 62 {
				c.count = 0
			} else {
				c.count >>= uint(steps)
			}
			c.last += simnet.VTime(steps * int64(hotHalfLife))
		}
	}
	if c.count == 0 {
		c.last = at
	}
	c.count++
	h.counters[key] = c
	return c.count >= hotThreshold
}

// adaptiveTail runs after the owner's table read of an adaptive lookup of
// key: it counts the lookup and, once the key is hot, returns the
// advertisement to embed in the row — the first Replication − 1 live
// links of key's write chain from here, the holders replicate() writes.
// At Replication 1 there are none, and adaptive reads stay static.
func (n *IndexNode) adaptiveTail(key chord.ID, at simnet.VTime) []simnet.Addr {
	if !n.hot.noteLookup(key, at) {
		return nil
	}
	var (
		holders []simnet.Addr
		list    []chord.Ref
	)
	for i := 0; len(holders) < n.replication-1; i++ {
		succ, ok := n.chainLink(key, i, &list)
		if !ok {
			break
		}
		if n.net.Alive(succ.Addr) {
			holders = append(holders, succ.Addr)
		}
	}
	return holders
}
