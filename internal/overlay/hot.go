package overlay

// Workload-adaptive hot-key replication (home-successor side).
//
// The paper's two-level location table places each key on exactly one
// Chord successor, so a skewed workload turns the successor of a popular
// key into a hotspot. Following the workload-adaptivity idea of AdPart /
// PHD-Store, an index node counts the lookups it serves per key with a
// half-life-decayed counter (deterministic: decay is computed in whole
// virtual-time windows from integer VTimes, never from wall clocks) and,
// past a threshold, pushes an absolute epoch-stamped copy of the row to k
// ring successors. Adaptive initiators learn those replica addresses from
// the lookup response and read the nearest live copy directly next time.
//
// Coherence is epoch-based: every copy is stamped with the stabilization
// epoch of the lookup that triggered it, replica reads carry the reader's
// epoch and miss on any mismatch, and the holder discards the stale copy
// on that miss. Since Converge / StabilizeRound / FailNode / RecoverNode
// all bump the epoch, any churn that can move key ownership implicitly
// invalidates every outstanding replica and client hint at once. Within
// an epoch, mutations (put, put_batch, drop_node) re-push the affected
// hot rows to the same holders before the mutation is acknowledged, so a
// fault-free run can never serve a stale replica.

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// The hot-key detector's constants.
const (
	// hotThreshold is the decayed lookup count at which a key turns hot.
	hotThreshold = 4
	// hotHalfLife is the virtual-time window after which counts halve.
	hotHalfLife = simnet.VTime(2 * time.Second)
	// hotReplicas is the number of ring successors receiving hot copies.
	hotReplicas = 2
)

// hotCounter is one key's decayed lookup counter. last anchors the decay
// window; counts halve once per whole hotHalfLife elapsed since it.
type hotCounter struct {
	count int
	last  simnet.VTime
}

// hotEntry records, on the home successor, where a hot key's row has been
// pushed and under which stabilization epoch the copies are valid.
type hotEntry struct {
	replicas []simnet.Addr
	epoch    uint64
}

// heldReplica is one hot row held on a replica holder.
type heldReplica struct {
	postings []Posting
	home     simnet.Addr
	epoch    uint64
}

// hotState is the per-node adaptive state. mu is a leaf lock guarding
// every field below it; it is never held across fabric calls — callers
// decide under the lock, release it, then send.
type hotState struct {
	mu       sync.Mutex
	counters map[chord.ID]hotCounter
	entries  map[chord.ID]hotEntry
	held     map[chord.ID]heldReplica
}

// newHotState is an adaptive index node's detector, empty.
func newHotState() *hotState {
	return &hotState{
		counters: make(map[chord.ID]hotCounter),
		entries:  make(map[chord.ID]hotEntry),
		held:     make(map[chord.ID]heldReplica),
	}
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

// adaptiveTail runs after the table read of an adaptive (epoch-stamped)
// lookup: it counts the lookup and, once the key is hot, pushes the row
// to the node's ring successors and returns the advertisement to embed in
// the response. Pushes are fire-and-forget Sends, so the lookup's own
// latency never blocks on a replica holder; a lost push just leaves a
// holder that answers "miss". postings is the fresh copy already built
// for the response; the pushes get their own copy so no two payloads
// alias one slice.
func (n *IndexNode) adaptiveTail(h *hotState, key chord.ID, postings []Posting, epoch uint64, tc trace.TraceContext, at simnet.VTime) ([]simnet.Addr, uint64) {
	if !h.noteLookup(key, at) {
		return nil, 0
	}
	h.mu.Lock()
	entry, ok := h.entries[key]
	h.mu.Unlock()
	if ok && entry.epoch == epoch {
		return append([]simnet.Addr(nil), entry.replicas...), epoch
	}
	targets := n.hotTargets()
	if len(targets) == 0 {
		return nil, 0
	}
	ps := append([]Posting(nil), postings...)
	flt := n.net.FlightRecorder()
	for i, to := range targets {
		// Hot-replica pushes are advisory: a lost push leaves a holder
		// that misses and the initiator falls back to the home
		// successor.
		n.net.Send(n.addr, to, MethodHotReplica,
			HotReplicaReq{Key: key, Home: n.addr, Epoch: epoch, Postings: ps, TC: tc.Child(uint64(i + 1))}, at)
		if flt != nil {
			flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindHotPush,
				VT: int64(at), End: int64(at), Peer: string(to), Method: MethodHotReplica,
				Query: tc.Query, Note: "epoch " + strconv.FormatUint(epoch, 10)})
		}
	}
	h.mu.Lock()
	h.entries[key] = hotEntry{replicas: targets, epoch: epoch}
	h.mu.Unlock()
	return append([]simnet.Addr(nil), targets...), epoch
}

// hotTargets picks up to hotReplicas live ring successors (excluding the
// node itself) as holders for hot copies — the same walk replicate() uses
// for durability copies, so hot placement follows ring locality.
func (n *IndexNode) hotTargets() []simnet.Addr {
	list := n.Chord.SuccessorList()
	targets := make([]simnet.Addr, 0, hotReplicas)
	for _, succ := range list {
		if len(targets) >= hotReplicas {
			break
		}
		if succ.Addr == n.addr || !n.net.Alive(succ.Addr) {
			continue
		}
		targets = append(targets, succ.Addr)
	}
	return targets
}

// refreshHot re-pushes the current rows of mutated hot keys to their
// recorded holders, keeping same-epoch replicas coherent with the home
// table before the mutation is acknowledged. keys lists the touched keys
// (nil = every hot key, for whole-table mutations like drop_node); keys
// without a hot entry are skipped. Iteration is over a sorted copy so
// same-seed runs push in the same order.
func (n *IndexNode) refreshHot(keys []chord.ID, tc trace.TraceContext, at simnet.VTime) {
	h := n.hot
	if h == nil {
		return
	}
	h.mu.Lock()
	work := make([]chord.ID, 0, len(h.entries))
	if keys == nil {
		for k := range h.entries {
			work = append(work, k)
		}
	} else {
		for _, k := range keys {
			if _, ok := h.entries[k]; ok {
				work = append(work, k)
			}
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
	pushes := make([]struct {
		key   chord.ID
		entry hotEntry
	}, 0, len(work))
	for _, k := range work {
		pushes = append(pushes, struct {
			key   chord.ID
			entry hotEntry
		}{k, h.entries[k]})
	}
	h.mu.Unlock()
	seq := uint64(0)
	flt := n.net.FlightRecorder()
	for _, p := range pushes {
		ps := n.Table.Get(p.key)
		for _, to := range p.entry.replicas {
			seq++
			// Coherence re-pushes are absolute and epoch-stamped;
			// a lost one can at worst leave a same-epoch stale
			// copy, the documented fault-window trade shared with
			// the lookup cache.
			n.net.Send(n.addr, to, MethodHotReplica,
				HotReplicaReq{Key: p.key, Home: n.addr, Epoch: p.entry.epoch, Postings: ps, TC: tc.Child(1000 + seq)}, at)
			if flt != nil {
				flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindHotPush,
					VT: int64(at), End: int64(at), Peer: string(to), Method: MethodHotReplica,
					Query: tc.Query, Note: "refresh epoch " + strconv.FormatUint(p.entry.epoch, 10)})
			}
		}
	}
}

// storeHotReplica installs a pushed copy, replacing any previous one for
// the key wholesale (idempotent under re-delivery). The slice is copied
// so the stored row never aliases the wire payload.
func (n *IndexNode) storeHotReplica(r HotReplicaReq) {
	h := n.hot
	if h == nil {
		return
	}
	ps := append([]Posting(nil), r.Postings...)
	h.mu.Lock()
	h.held[r.Key] = heldReplica{postings: ps, home: r.Home, epoch: r.Epoch}
	h.mu.Unlock()
}

// readHotReplica serves a replica read at the requested epoch. A held
// copy with a different epoch is discarded on the spot (the epoch bump
// already invalidated it); a home node answers from its own table when it
// has advertised the key at that epoch. The returned row never aliases
// internal state. `at` timestamps the flight events of the read/discard.
func (n *IndexNode) readHotReplica(key chord.ID, epoch uint64, at simnet.VTime) ([]Posting, bool) {
	h := n.hot
	if h == nil {
		return nil, false
	}
	flt := n.net.FlightRecorder()
	h.mu.Lock()
	if held, ok := h.held[key]; ok {
		if held.epoch == epoch {
			ps := append([]Posting(nil), held.postings...)
			h.mu.Unlock()
			if flt != nil {
				flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindHotRead,
					VT: int64(at), End: int64(at), Method: MethodHotLookup,
					Note: "epoch " + strconv.FormatUint(epoch, 10)})
			}
			return ps, true
		}
		stale := held.epoch
		delete(h.held, key)
		if flt != nil {
			flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindHotInval,
				VT: int64(at), End: int64(at), Method: MethodHotLookup,
				Note: "stale epoch " + strconv.FormatUint(stale, 10) + " != " + strconv.FormatUint(epoch, 10)})
		}
	}
	entry, home := h.entries[key]
	h.mu.Unlock()
	if home && entry.epoch == epoch {
		if flt != nil {
			flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindHotRead,
				VT: int64(at), End: int64(at), Method: MethodHotLookup, Note: "home"})
		}
		return n.Table.Get(key), true
	}
	return nil, false
}

// HeldHot is one hot-row copy held on a replica holder, as seen by the
// replica-epoch monitor.
type HeldHot struct {
	Key   chord.ID
	Home  simnet.Addr
	Epoch uint64
}

// HeldHotReplicas snapshots the node's held hot copies, sorted by key
// (empty when the node is not adaptive).
func (n *IndexNode) HeldHotReplicas() []HeldHot {
	h := n.hot
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]HeldHot, 0, len(h.held))
	for k, held := range h.held {
		out = append(out, HeldHot{Key: k, Home: held.home, Epoch: held.epoch})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// HotAdvertisedEpoch reports the epoch under which the home node last
// advertised the key as hot (ok=false when the key has no hot entry).
func (n *IndexNode) HotAdvertisedEpoch(key chord.ID) (uint64, bool) {
	h := n.hot
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	entry, ok := h.entries[key]
	return entry.epoch, ok
}
