// Package flight is the always-on flight recorder of the simulated
// deployment: a bounded, per-node ring of typed, VTime-stamped events
// (message deliveries and losses, ring maintenance, epoch bumps, query
// stage transitions) that the
// invariant monitors consume and incident reports are built from.
//
// Like the trace package it is a leaf with a strictly observational
// contract: events are keyed to virtual time only, a nil *Recorder
// disables everything (every method is nil-safe and the disabled path
// allocates nothing), and recording never changes accounted messages,
// bytes or VTimes.
//
// Determinism under overlapping clients: when several client goroutines
// drive one deployment the *insertion order* of events is a goroutine
// race, but the event multiset of a seeded run is fixed. Each
// node's ring (a boundedlog.Log) therefore retains the canonically
// largest events of a total order and, at capacity, evicts the
// canonically smallest (earliest) one — so the retained contents depend
// only on the multiset, never on scheduling, and same-seed runs produce
// byte-identical logs even at capacity. Per-kind counters are never
// evicted, which is what keeps the traffic-conservation monitor exact
// however small the rings are.
package flight

import (
	"sort"

	"adhocshare/internal/boundedlog"
	"adhocshare/internal/lockcheck"
)

// Event kinds. Message-leg kinds (Deliver, Lost, Unreachable) pair one to
// one with the fabric's accounted message legs — the invariant the
// conservation monitor checks.
const (
	// KindDeliver is one message leg that arrived (a call's request and
	// response legs are two events, like two accounted messages).
	KindDeliver = "deliver"
	// KindLost is a message leg dropped by the fault plan.
	KindLost = "lost"
	// KindUnreachable is a message leg sent to a failed/crashed node.
	KindUnreachable = "unreachable"
	// KindRetry is a routing-level fallback to another candidate after a
	// failed attempt.
	KindRetry = "retry"

	// KindJoin, KindStabilize and KindEvict are Chord ring maintenance.
	KindJoin      = "chord.join"
	KindStabilize = "chord.stabilize"
	KindEvict     = "chord.evict"

	// KindFail and KindRecover are operator-driven crash/recovery marks.
	KindFail    = "node.fail"
	KindRecover = "node.recover"

	// KindEpochBump is a stabilization-epoch advance: hot-read hints
	// lapse, and so do the owner arcs its note names (one arc or
	// everything).
	KindEpochBump = "epoch.bump"

	// KindStage is a distributed-query stage transition at the initiator;
	// KindPartial marks a query that completed with typed partial failure.
	KindStage   = "query.stage"
	KindPartial = "query.partial"
)

// Event is one recorded occurrence on one node. All fields are value
// types (strings and integers), so an Event is wire-safe by construction
// — though events never travel on the wire: they have zero wire
// footprint by contract.
type Event struct {
	// Node is the node the event belongs to (the ring it lands in). For
	// message legs this is the sender of the leg.
	Node string
	// Kind is one of the Kind* constants.
	Kind string
	// VT and End are the event's virtual interval in nanoseconds since
	// the simulation epoch (End ≥ VT; equal for instantaneous events).
	VT  int64
	End int64
	// Peer is the other endpoint, when there is one.
	Peer string
	// Method is the RPC method or operation name.
	Method string
	// Query is the trace identifier correlating the event with a span
	// tree (zero = untraced).
	Query uint64
	// Note is a short human annotation ("error", an epoch number, …).
	Note string
}

// Less is the canonical total order over events: virtual time first,
// then every remaining field, so equal event multisets sort
// byte-identically whatever order they were emitted in.
func Less(a, b *Event) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if a.Query != b.Query {
		return a.Query < b.Query
	}
	return a.Note < b.Note
}

// SortEvents orders events canonically in place.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool { return Less(&events[i], &events[j]) })
}

// DefaultRingSize is the per-node event capacity used when callers pass
// a non-positive size.
const DefaultRingSize = 256

// Recorder is the flight recorder: per-node bounded rings plus unbounded
// per-kind counters. A nil *Recorder is the disabled recorder — every
// method is nil-safe and the disabled path performs no work and no
// allocation. Safe for concurrent use.
type Recorder struct {
	// size is the per-node ring capacity, immutable after construction,
	// so it is readable without the lock.
	size int

	mu     lockcheck.Mutex
	rings  map[string]*boundedlog.Log[Event] // one bounded event log per node
	counts map[string]int64
	total  int64
}

// NewRecorder creates a recorder holding up to size events per node
// (DefaultRingSize when size ≤ 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{
		size:   size,
		rings:  map[string]*boundedlog.Log[Event]{},
		counts: map[string]int64{},
	}
}

// Size returns the per-node ring capacity (0 for nil).
func (r *Recorder) Size() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Emit records one event: the per-kind counter always advances, and the
// event is added to its node's ring, evicting the canonically earliest
// event once the ring is full. After a node's first event, emission is
// allocation-free.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[e.Kind]++
	r.total++
	rg, ok := r.rings[e.Node]
	if !ok {
		rg = boundedlog.New(r.size, Less)
		r.rings[e.Node] = rg
	}
	rg.Add(e)
	r.mu.Unlock()
}

// Nodes lists the nodes with at least one retained event, sorted.
func (r *Recorder) Nodes() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.rings))
	for n := range r.rings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NodeEvents returns a copy of one node's retained events in canonical
// order.
func (r *Recorder) NodeEvents(node string) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rg, ok := r.rings[node]; ok {
		return rg.AppendSorted(nil)
	}
	return nil
}

// LastN returns the last (canonically latest) n retained events of one
// node.
func (r *Recorder) LastN(node string, n int) []Event {
	events := r.NodeEvents(node)
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	return events
}

// Events returns every retained event across all nodes, merged into one
// canonically ordered slice.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Event
	for _, rg := range r.rings {
		out = rg.AppendSorted(out)
	}
	r.mu.Unlock()
	SortEvents(out)
	return out
}

// Count returns the number of events of one kind ever emitted (eviction
// never decrements it).
func (r *Recorder) Count(kind string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// Counts returns a copy of the per-kind counters.
func (r *Recorder) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Total returns the number of events ever emitted.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset discards all retained events and counters.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rings = map[string]*boundedlog.Log[Event]{}
	r.counts = map[string]int64{}
	r.total = 0
	r.mu.Unlock()
}
