package chord

import (
	"cmp"
	"errors"
	"fmt"

	"adhocshare/internal/flight"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/simnet"
)

// Config parameterizes a ring member.
type Config struct {
	// Bits is the identifier-circle width m (default 32). The paper's
	// Fig. 1 uses a 4-bit space.
	Bits uint
	// SuccListSize is the successor-list length r used for failure
	// resilience (default 4).
	SuccListSize int
}

func (c Config) withDefaults() Config {
	if c.Bits == 0 || c.Bits > 64 {
		c.Bits = 32
	}
	if c.SuccListSize <= 0 {
		c.SuccListSize = 4
	}
	return c
}

// Node is one Chord ring member. It does not register itself on the
// network: the owner (an overlay index node) registers a handler and
// delegates methods with the "chord." prefix to HandleCall.
type Node struct {
	cfg  Config
	id   ID
	addr simnet.Addr
	net  *simnet.Network

	mu      lockcheck.RWMutex
	succ    []Ref // successor list, succ[0] is the immediate successor
	pred    Ref
	fingers []Ref // fingers[k] ≈ successor(id + 2^k)
	nextFix int   // round-robin finger refresh cursor
}

// NewNode creates a ring member with the given identifier. Use HashID to
// derive the identifier from the address, or pass an explicit ID to
// reconstruct fixed topologies such as the paper's Fig. 1.
func NewNode(net *simnet.Network, addr simnet.Addr, id ID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		id:      id.truncate(cfg.Bits),
		addr:    addr,
		net:     net,
		fingers: make([]Ref, cfg.Bits),
	}
	return n
}

// ID returns the node's ring identifier.
func (n *Node) ID() ID { return n.id }

// Addr returns the node's network address.
func (n *Node) Addr() simnet.Addr { return n.addr }

// Ref returns the node's own reference.
func (n *Node) Ref() Ref { return Ref{ID: n.id, Addr: n.addr} }

// Successor returns the current immediate successor.
func (n *Node) Successor() Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.successorLocked()
}

// successorLocked is Successor for a caller holding mu.
func (n *Node) successorLocked() Ref {
	if len(n.succ) == 0 {
		return n.Ref()
	}
	return n.succ[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]Ref(nil), n.succ...)
}

// Fingers returns a copy of the finger table, entry k the node that
// fingers[k] names for successor(ID + 2^k).
func (n *Node) Fingers() []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]Ref(nil), n.fingers...)
}

// Predecessor returns the current predecessor (zero when unknown).
func (n *Node) Predecessor() Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred
}

// Create initializes a one-node ring.
func (n *Node) Create() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succ = []Ref{n.Ref()}
	n.pred = Ref{}
	for i := range n.fingers {
		n.fingers[i] = n.Ref()
	}
}

// ErrLookupFailed is returned when routing cannot proceed (all candidate
// next hops unreachable).
var ErrLookupFailed = errors.New("chord: lookup failed")

// Join inserts the node into the ring known to exist via the bootstrap
// address. It returns the virtual completion time.
func (n *Node) Join(bootstrap simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	resp, done, err := n.net.CallRetry(n.addr, bootstrap, MethodFindSuccessor, FindReq{Target: n.id}, at)
	if err != nil {
		return done, fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	succ := resp.(FindResp).Node
	n.mu.Lock()
	n.succ = []Ref{succ}
	n.pred = Ref{}
	for i := range n.fingers {
		n.fingers[i] = succ
	}
	n.mu.Unlock()
	if flt := n.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindJoin,
			VT: int64(at), End: int64(done), Peer: string(bootstrap)})
	}
	return done, nil
}

// Lookup resolves the successor of target, counting forwarding hops. The
// initiating node's own routing step is free (local decision); each
// forward is one simnet call.
func (n *Node) Lookup(target ID, at simnet.VTime) (Ref, int, simnet.VTime, error) {
	resp, done, err := n.handleFindSuccessor(at, FindReq{Target: target.truncate(n.cfg.Bits)})
	if err != nil {
		return Ref{}, 0, done, err
	}
	return resp.Node, resp.Hops, done, nil
}

// HandleCall dispatches chord RPC methods; the owner's simnet handler
// forwards "chord."-prefixed methods here.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodFindSuccessor:
		return n.handleFindSuccessorPayload(at, req)
	case MethodFindSuccessorBatch:
		br, ok := req.(BatchFindReq)
		if !ok {
			return nil, at, fmt.Errorf("chord: find_successor_batch payload %T", req)
		}
		resp, done, err := n.handleFindSuccessorBatch(at, br)
		if err != nil {
			return nil, done, err
		}
		return resp, done, nil
	case MethodGetPredecessor:
		return n.Predecessor(), at, nil
	case MethodGetSuccList:
		return RefList{Refs: n.SuccessorList()}, at, nil
	case MethodNotify:
		r, ok := req.(Ref)
		if !ok {
			return nil, at, fmt.Errorf("chord: notify payload %T", req)
		}
		n.notify(r)
		return simnet.Bytes(1), at, nil
	case MethodPing:
		return simnet.Bytes(1), at, nil
	case MethodUpdateFinger:
		fr, ok := req.(FingerReq)
		if !ok {
			return nil, at, fmt.Errorf("chord: update_finger payload %T", req)
		}
		return n.updateFinger(fr), at, nil
	case MethodSetPredecessor:
		r, ok := req.(Ref)
		if !ok {
			return nil, at, fmt.Errorf("chord: set_predecessor payload %T", req)
		}
		n.mu.Lock()
		n.pred = r
		n.mu.Unlock()
		return simnet.Bytes(1), at, nil
	case MethodSetSuccessor:
		r, ok := req.(Ref)
		if !ok {
			return nil, at, fmt.Errorf("chord: set_successor payload %T", req)
		}
		n.mu.Lock()
		if !r.IsZero() {
			// Strip any existing occurrence before prepending so that
			// re-executing the update (a retried set after a lost reply)
			// leaves the list unchanged rather than accumulating duplicates.
			rest := make([]Ref, 0, len(n.succ))
			for _, s := range n.succ {
				if s.Addr != r.Addr {
					rest = append(rest, s)
				}
			}
			n.succ = append([]Ref{r}, trimRefs(rest, n.cfg.SuccListSize-1)...)
		}
		n.mu.Unlock()
		return simnet.Bytes(1), at, nil
	default:
		return nil, at, fmt.Errorf("chord: unknown method %s", method)
	}
}

func trimRefs(refs []Ref, max int) []Ref {
	if max < 0 {
		max = 0
	}
	if len(refs) > max {
		refs = refs[:max]
	}
	return refs
}

func (n *Node) handleFindSuccessorPayload(at simnet.VTime, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	fr, ok := req.(FindReq)
	if !ok {
		return nil, at, fmt.Errorf("chord: find_successor payload %T", req)
	}
	resp, done, err := n.handleFindSuccessor(at, fr)
	if err != nil {
		return nil, done, err
	}
	return resp, done, nil
}

// handleFindSuccessor implements the recursive Chord routing step with
// failure fallback along progressively closer fingers and the successor
// list.
func (n *Node) handleFindSuccessor(at simnet.VTime, req FindReq) (FindResp, simnet.VTime, error) {
	next, owned := n.NextHop(req.Target)
	if owned {
		return FindResp{Node: next, Hops: req.Hops}, at, nil
	}
	now := at
	cands := []Ref{next} // one routing decision; the rest once it fails
	for ci := 0; ci < len(cands) && !cands[ci].IsZero(); ci++ {
		next := cands[ci]
		// Each forwarding hop derives a child trace context from the request
		// it received, so a traced lookup renders as a chain of message
		// spans (candidate index keeps retry attempts distinct). A hop whose
		// message is lost in transit is re-sent in place (find_successor is
		// read-only, so re-execution is safe); only then does routing fall
		// back to the next candidate.
		resp, done, err := n.net.CallRetry(n.addr, next.Addr, MethodFindSuccessor,
			FindReq{Target: req.Target, Hops: req.Hops + 1, TC: req.TC.Child(uint64(ci))}, now)
		if err == nil {
			return resp.(FindResp), done, nil
		}
		// Failed next hop: remember the time wasted and try the next
		// candidate (the successor list / farther fingers).
		now = done
		if ci == 0 {
			// Read before HopFailed's eviction: the list this hop headed.
			cands = n.RouteCandidates(req.Target)
		}
		n.HopFailed(next.Addr, MethodFindSuccessor, req.TC.Query, err, now)
	}
	return FindResp{}, now, fmt.Errorf("%w: target %v from %v", ErrLookupFailed, req.Target, n.id)
}

// HopFailed is what a hop does when its forward to next failed with err at
// `at`, before it tries its next candidate: it flight-records a retry and
// evicts next from the routing tables — unless the message was merely lost,
// since a lossy link says nothing about the node's liveness, and evicting
// live fingers would degrade routing for every later lookup.
func (n *Node) HopFailed(next simnet.Addr, method string, query uint64, err error, at simnet.VTime) {
	if flt := n.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindRetry,
			VT: int64(at), End: int64(at), Peer: string(next),
			Method: method, Query: query})
	}
	if !simnet.IsLost(err) {
		n.evict(next, at)
	}
}

// handleFindSuccessorBatch resolves many targets in one recursive routing
// step: targets this node can answer directly are filled in locally, the
// rest are grouped by their preferred next hop and each group is forwarded
// as one sub-batch, all groups in parallel — so a shared route prefix is
// traversed once per group instead of once per key, and the virtual
// completion time is the critical path over the groups. A group whose next
// hop is unreachable falls back to per-target routing, which retries along
// farther fingers and the successor list. A node that answers targets
// itself adds its arc, (own ID, successor], so the caller learns the
// owner's whole range; the sub-batches' arcs ride back with theirs.
func (n *Node) handleFindSuccessorBatch(at simnet.VTime, req BatchFindReq) (BatchFindResp, simnet.VTime, error) {
	nodes := make([]Ref, len(req.Targets))
	hops := req.Hops
	order, groups, err := n.RouteBatch(req.Targets, nodes)
	if err != nil {
		return BatchFindResp{}, at, err
	}
	var own []Arc
	for _, r := range nodes {
		if !r.IsZero() {
			// Every target answered here names this node's successor.
			own = []Arc{{Start: n.id, Owner: r}}
			break
		}
	}
	if len(order) == 0 {
		return BatchFindResp{Nodes: nodes, Arcs: own, Hops: hops}, at, nil
	}
	// A failed group falls back to serial per-target re-routing below, so
	// no group's targets are silently dropped.
	results, done := simnet.Parallel(len(order), 0, func(g int) (BatchFindResp, simnet.VTime, error) {
		next := order[g]
		idxs := groups[next]
		sub := make([]ID, len(idxs))
		for j, i := range idxs {
			sub[j] = req.Targets[i].truncate(n.cfg.Bits)
		}
		resp, gdone, err := n.net.CallRetry(n.addr, next, MethodFindSuccessorBatch,
			BatchFindReq{Targets: sub, Hops: req.Hops + 1, TC: req.TC.Child(uint64(g))}, at)
		if err != nil {
			return BatchFindResp{}, gdone, err
		}
		return resp.(BatchFindResp), gdone, nil
	})
	nArcs := len(own)
	for _, r := range results {
		nArcs += len(r.Value.Arcs)
	}
	arcs := append(make([]Arc, 0, nArcs), own...)
	for g, r := range results {
		idxs := groups[order[g]]
		if r.Err != nil {
			// The group's next hop failed even after in-place retries:
			// evict it if it is actually gone (not merely lossy) and
			// resolve the group's targets one by one (after the fan-out,
			// so no branch routes on a half-repaired table), starting
			// from the failed branch's timeout.
			n.HopFailed(order[g], MethodFindSuccessorBatch, req.TC.Query, r.Err, r.Done)
			now := r.Done
			for _, i := range idxs {
				// Fallback sequence numbers start past the group indexes so
				// they never collide with the parallel forwards above.
				fr, fdone, ferr := n.handleFindSuccessor(now,
					FindReq{Target: req.Targets[i].truncate(n.cfg.Bits), Hops: req.Hops,
						TC: req.TC.Child(uint64(len(order) + i))})
				now = fdone
				if ferr != nil {
					return BatchFindResp{}, simnet.MaxTime(done, now), ferr
				}
				nodes[i] = fr.Node
				if fr.Hops > hops {
					hops = fr.Hops
				}
			}
			done = simnet.MaxTime(done, now)
			continue
		}
		for j, i := range idxs {
			nodes[i] = r.Value.Nodes[j]
		}
		arcs = append(arcs, r.Value.Arcs...)
		if r.Value.Hops > hops {
			hops = r.Value.Hops
		}
	}
	return BatchFindResp{Nodes: nodes, Arcs: arcs, Hops: hops}, simnet.MaxTime(at, done), nil
}

// RouteBatch is the routing decision for every target of a batch, taken
// under one read lock: a target the successor owns is answered in nodes,
// any other is grouped by its next hop (NextHop). Group order follows first
// occurrence in the (caller-sorted) targets. Only the groups allocate.
func (n *Node) RouteBatch(targets []ID, nodes []Ref) (order []simnet.Addr, groups map[simnet.Addr][]int, err error) {
	groups = map[simnet.Addr][]int{}
	n.mu.RLock()
	defer n.mu.RUnlock()
	succ := n.successorLocked()
	for i, raw := range targets {
		target := raw.truncate(n.cfg.Bits)
		if n.ownedLocked(succ, target) {
			nodes[i] = succ
			continue
		}
		next := n.nextHopLocked(target).Addr
		if next == "" {
			return nil, nil, fmt.Errorf("%w: target %v from %v", ErrLookupFailed, target, n.id)
		}
		if _, ok := groups[next]; !ok {
			order = append(order, next)
		}
		groups[next] = append(groups[next], i)
	}
	return order, groups, nil
}

// NextHop is the routing decision of one hop toward target, the one
// handleFindSuccessor forwards on. With owned set, next is the successor,
// which owns target; otherwise next is the head of RouteCandidates(target),
// zero when there is none.
func (n *Node) NextHop(target ID) (next Ref, owned bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if succ := n.successorLocked(); n.ownedLocked(succ, target) {
		return succ, true
	}
	return n.nextHopLocked(target), false
}

// ownedLocked reports whether succ, the successor of a caller holding mu,
// owns target: it lies in (n, succ], or the node is alone on its ring.
func (n *Node) ownedLocked(succ Ref, target ID) bool {
	return succ.Addr == n.addr || betweenRightIncl(target, n.id, succ.ID)
}

// RouteCandidates lists possible next hops for the target in preference
// order, the eager fallback order of a hop whose first forward failed: the
// closest preceding finger first, then successor-list entries. Only a
// failed hop needs more than its head (nextHopLocked), so duplicates are
// dropped by scanning the result — a node has about log2(ring size)
// distinct fingers — instead of through a set.
func (n *Node) RouteCandidates(target ID) []Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Ref, 0, 8)
	add := func(r Ref, finger bool) {
		if !n.candidate(r, finger, target) {
			return
		}
		for _, have := range out {
			if have.Addr == r.Addr {
				return
			}
		}
		out = append(out, r)
	}
	for i := len(n.fingers) - 1; i >= 0; i-- {
		add(n.fingers[i], true)
	}
	for _, s := range n.succ {
		add(s, false)
	}
	return out
}

// nextHopLocked is RouteCandidates(target)[0], zero when there is none,
// without building the list, for a caller holding mu.
func (n *Node) nextHopLocked(target ID) Ref {
	for i := len(n.fingers) - 1; i >= 0; i-- {
		if f := n.fingers[i]; n.candidate(f, true, target) {
			return f
		}
	}
	for _, s := range n.succ {
		if n.candidate(s, false, target) {
			return s
		}
	}
	return Ref{}
}

// candidate is the test RouteCandidates and nextHopLocked share: r is set,
// is not this node and, if a finger, lies in (n.id, target).
func (n *Node) candidate(r Ref, finger bool, target ID) bool {
	return (!finger || between(r.ID, n.id, target)) && !r.IsZero() && r.Addr != n.addr
}

// evict removes a failed address from the finger table and successor list
// so future routing avoids it until stabilization repopulates. The
// eviction is flight-recorded at the virtual time the failure was
// established.
func (n *Node) evict(addr simnet.Addr, at simnet.VTime) {
	if flt := n.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindEvict,
			VT: int64(at), End: int64(at), Peer: string(addr)})
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, f := range n.fingers {
		if f.Addr == addr {
			n.fingers[i] = Ref{}
		}
	}
	var keep []Ref
	for _, s := range n.succ {
		if s.Addr != addr {
			keep = append(keep, s)
		}
	}
	if len(keep) == 0 {
		keep = []Ref{n.Ref()} // last resort: point at self until repaired
	}
	n.succ = keep
	if n.pred.Addr == addr {
		n.pred = Ref{}
	}
}

// notify is Chord's notify(n'): n' might be our predecessor.
func (n *Node) notify(cand Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cand.Addr == n.addr {
		return
	}
	if n.pred.IsZero() || between(cand.ID, n.pred.ID, n.id) || !n.net.Alive(n.pred.Addr) {
		n.pred = cand
	}
}

// Stabilize runs one round of the Chord stabilization protocol and refreshes
// the successor list. It returns the virtual completion time.
func (n *Node) Stabilize(at simnet.VTime) simnet.VTime {
	done, _ := n.stabilize(at) //adhoclint:ignore discarded-error periodic maintenance; the next round redoes whatever this one missed
	return done
}

// stabilize is Stabilize, also returning the first failed call's error: a
// failure never stops the round, but a repair that relies on the round's
// outcome must know it fell short.
//
// Every pointer a round writes is re-derived by the next stabilization, so a
// round a failure cut short is finished by the next.
func (n *Node) stabilize(at simnet.VTime) (simnet.VTime, error) {
	succ := n.Successor()
	now := at
	var first error
	if succ.Addr == n.addr {
		// Pointing at ourselves (ring creator or sole survivor): a joiner
		// that notified us appears as our predecessor — adopt it as the
		// successor to close the ring.
		pred := n.Predecessor()
		if !pred.IsZero() && n.net.Alive(pred.Addr) {
			n.mu.Lock()
			n.succ = []Ref{pred}
			n.mu.Unlock()
			succ = pred
		}
	}
	if succ.Addr != n.addr {
		resp, done, err := n.net.CallRetry(n.addr, succ.Addr, MethodGetPredecessor, simnet.Bytes(1), now)
		now = done
		if err != nil {
			first = err
			if !simnet.IsLost(err) {
				n.evict(succ.Addr, now)
				succ = n.Successor()
			}
		} else if x, ok := resp.(Ref); ok && !x.IsZero() && between(x.ID, n.id, succ.ID) && n.net.Alive(x.Addr) {
			n.mu.Lock()
			n.succ = append([]Ref{x}, trimRefs(n.succ, n.cfg.SuccListSize-1)...)
			n.mu.Unlock()
			succ = x
		}
	}
	if succ.Addr != n.addr {
		// notify is an absolute pointer update, so re-execution after a
		// lost reply converges to the same state (idempotent).
		_, done, err := n.net.CallRetry(n.addr, succ.Addr, MethodNotify, n.Ref(), now)
		now = done
		if err != nil {
			first = cmp.Or(first, err)
			if !simnet.IsLost(err) {
				n.evict(succ.Addr, now)
			}
		}
	}
	now, err := n.refreshSuccList(now)
	first = cmp.Or(first, err)
	if flt := n.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(n.addr), Kind: flight.KindStabilize,
			VT: int64(at), End: int64(now)})
	}
	return now, first
}

// refreshSuccList re-reads the successor list from the (possibly new)
// successor: the successor, then its list, without this node, duplicates
// or nodes the failure detector reports down, up to r entries. A node
// pointing at itself is the sole survivor and closes the ring on self.
func (n *Node) refreshSuccList(at simnet.VTime) (simnet.VTime, error) {
	if succ := n.Successor(); succ.Addr != n.addr {
		resp, done, err := n.net.CallRetry(n.addr, succ.Addr, MethodGetSuccList, simnet.Bytes(1), at)
		if err != nil {
			if !simnet.IsLost(err) {
				n.evict(succ.Addr, done)
			}
			return done, err
		}
		merged := append([]Ref{succ}, trimRefs(resp.(RefList).Refs, n.cfg.SuccListSize-1)...)
		var dedup []Ref
		seen := map[simnet.Addr]bool{}
		for _, r := range merged {
			if r.Addr != n.addr && !seen[r.Addr] && n.net.Alive(r.Addr) {
				seen[r.Addr] = true
				dedup = append(dedup, r)
			}
		}
		n.mu.Lock()
		n.succ = trimRefs(dedup, n.cfg.SuccListSize)
		n.mu.Unlock()
		return done, nil
	}
	n.mu.Lock()
	n.succ = []Ref{n.Ref()}
	n.mu.Unlock()
	return at, nil
}

// FixFingers refreshes one finger per call, cycling through the table; this
// mirrors Chord's periodic fix_fingers task.
func (n *Node) FixFingers(at simnet.VTime) simnet.VTime {
	n.mu.Lock()
	k := n.nextFix
	n.nextFix = (n.nextFix + 1) % int(n.cfg.Bits)
	n.mu.Unlock()
	target := n.id.add(uint(k), n.cfg.Bits)
	resp, _, done, err := n.Lookup(target, at)
	if err != nil {
		return done
	}
	n.mu.Lock()
	n.fingers[k] = resp
	n.mu.Unlock()
	return done
}

// FixAllFingers refreshes the whole finger table (used after join and in
// tests to reach a converged routing state quickly).
func (n *Node) FixAllFingers(at simnet.VTime) simnet.VTime {
	now := at
	for k := uint(0); k < n.cfg.Bits; k++ {
		target := n.id.add(k, n.cfg.Bits)
		resp, _, done, err := n.Lookup(target, now)
		now = done
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.fingers[k] = resp
		n.mu.Unlock()
	}
	return now
}

// buildFingers sets the whole finger table from one batch resolve of the
// fingers' starts, which shares their routes; a failed resolve leaves the
// table as it was.
func (n *Node) buildFingers(at simnet.VTime) (simnet.VTime, error) {
	starts := make([]ID, n.cfg.Bits)
	for k := range starts {
		starts[k] = n.id.add(uint(k), n.cfg.Bits)
	}
	resp, done, err := n.handleFindSuccessorBatch(at, BatchFindReq{Targets: starts})
	if err != nil {
		return done, err
	}
	n.mu.Lock()
	copy(n.fingers, resp.Nodes)
	n.mu.Unlock()
	return done, nil
}

// updateFinger points finger K at Owner if the finger's start, ID + 2^K,
// lies in the moved arc (From, To], and returns the node's successor so
// the caller can walk on to the next node whose finger K may lie there.
func (n *Node) updateFinger(req FingerReq) Ref {
	n.mu.Lock()
	defer n.mu.Unlock()
	if k := uint(req.K); k < n.cfg.Bits && betweenRightIncl(n.id.add(k, n.cfg.Bits), req.From, req.To) {
		n.fingers[k] = req.Owner
	}
	return n.successorLocked()
}

// CheckPredecessor clears the predecessor if it no longer answers pings.
func (n *Node) CheckPredecessor(at simnet.VTime) simnet.VTime {
	pred := n.Predecessor()
	if pred.IsZero() {
		return at
	}
	_, done, err := n.net.CallRetry(n.addr, pred.Addr, MethodPing, simnet.Bytes(1), at)
	if err != nil && !simnet.IsLost(err) {
		// A lossy link is not a dead predecessor: only clear the pointer
		// when the node is genuinely unreachable.
		n.mu.Lock()
		n.pred = Ref{}
		n.mu.Unlock()
	}
	return done
}

// Leave performs a graceful departure: the predecessor's successor pointer
// and the successor's predecessor pointer are rewired around this node
// (Sect. III-D; the location-table handover happens at the overlay layer).
func (n *Node) Leave(at simnet.VTime) simnet.VTime {
	succ := n.Successor()
	pred := n.Predecessor()
	now := at
	if succ.Addr != n.addr && !pred.IsZero() {
		// Pointer rewires are absolute sets — idempotent under re-execution
		// after a lost reply.
		_, done, err := n.net.CallRetry(n.addr, pred.Addr, MethodSetSuccessor, succ, now)
		now = done
		if err != nil && !simnet.IsLost(err) {
			// Unreachable neighbour: drop it from our tables; its side of
			// the ring repairs via stabilization once we deregister.
			n.evict(pred.Addr, now)
		}
	}
	if !pred.IsZero() && succ.Addr != n.addr {
		_, done, err := n.net.CallRetry(n.addr, succ.Addr, MethodSetPredecessor, pred, now)
		now = done
		if err != nil && !simnet.IsLost(err) {
			n.evict(succ.Addr, now)
		}
	}
	return now
}
