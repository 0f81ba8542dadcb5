package chord

import (
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// RPC method names. The "chord." prefix lets experiments separate DHT
// maintenance and routing traffic from query traffic in simnet metrics.
// Methods retried after lost messages say why re-executing their handler
// is safe; read-only handlers (get_predecessor, get_successor_list, ping)
// say nothing. TestE9AllConfigsUnderLoss runs the ring's retried calls
// under 1% loss against the centralized oracle.
const (
	// Forwarding is a read plus routing-table eviction; evicting the same
	// dead address twice converges to the same tables.
	MethodFindSuccessor = "chord.find_successor"
	// Same forwarding-plus-eviction argument as find_successor, applied
	// per sub-batch.
	MethodFindSuccessorBatch = "chord.find_successor_batch"
	MethodGetPredecessor     = "chord.get_predecessor"
	MethodGetSuccList        = "chord.get_successor_list"
	// Absolute predecessor-candidate update; re-notifying with the same
	// ref is a no-op.
	MethodNotify = "chord.notify"
	MethodPing   = "chord.ping"
	// Absolute pointer assignment.
	MethodSetPredecessor = "chord.set_predecessor"
	// Absolute pointer assignment; the handler strips an existing
	// occurrence before prepending.
	MethodSetSuccessor = "chord.set_successor"
	// Absolute assignment of one finger, decided by the finger's start
	// alone.
	MethodUpdateFinger = "chord.update_finger"
)

// SizeBytes returns the fixed 8-byte wire width of a ring identifier.
func (ID) SizeBytes() int { return 8 }

// hopWidth is the wire width of a hop counter or a finger index.
func hopWidth(int) int { return 4 }

// Ref identifies a ring member: its identifier and network address.
type Ref struct {
	ID   ID
	Addr simnet.Addr
}

// SizeBytes implements simnet.Payload.
func (r Ref) SizeBytes() int { return r.ID.SizeBytes() + len(r.Addr) }

// IsZero reports whether the reference is unset.
func (r Ref) IsZero() bool { return r.Addr == "" }

// FindReq asks for the successor of Target; Hops counts forwarding steps
// taken so far. TC carries trace causality and is wire-immutable: each
// forwarding hop derives a fresh child context instead of mutating it.
type FindReq struct {
	Target ID
	Hops   int
	TC     trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r FindReq) SizeBytes() int {
	return r.Target.SizeBytes() + hopWidth(r.Hops) + r.TC.SizeBytes()
}

// TraceCtx implements trace.Carrier.
func (r FindReq) TraceCtx() trace.TraceContext { return r.TC }

// FindResp carries the found successor and the total hop count.
type FindResp struct {
	Node Ref
	Hops int
}

// SizeBytes implements simnet.Payload.
func (r FindResp) SizeBytes() int { return r.Node.SizeBytes() + hopWidth(r.Hops) }

// BatchFindReq asks for the successors of many targets in one request, so
// a publication can resolve all of its keys while traversing each shared
// route prefix once instead of once per key. Hops counts the forwarding
// depth reached so far.
type BatchFindReq struct {
	Targets []ID
	Hops    int
	TC      trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r BatchFindReq) SizeBytes() int {
	n := 4 + hopWidth(r.Hops) + r.TC.SizeBytes()
	for _, t := range r.Targets {
		n += t.SizeBytes()
	}
	return n
}

// TraceCtx implements trace.Carrier.
func (r BatchFindReq) TraceCtx() trace.TraceContext { return r.TC }

// BatchFindResp carries the found successors, Nodes[i] owning Targets[i]
// of the request, the owner arcs the answering nodes vouch for, and the
// deepest forwarding chain any target needed.
type BatchFindResp struct {
	Nodes []Ref
	// Arcs holds the arc of every node that answered targets for its own
	// successor, one per such node; the per-target fallback teaches none.
	Arcs []Arc
	Hops int
}

// SizeBytes implements simnet.Payload.
func (r BatchFindResp) SizeBytes() int {
	n := 4 + hopWidth(r.Hops)
	for _, ref := range r.Nodes {
		n += ref.SizeBytes()
	}
	for _, a := range r.Arcs {
		n += a.SizeBytes()
	}
	return n
}

// Arc is the key range a node answers for with its successor: Owner owns
// every key in (Start, Owner.ID], Start being the answering node's ID. On
// a ring of one, Start equals Owner.ID and the arc is the whole circle.
type Arc struct {
	Start ID
	Owner Ref
}

// SizeBytes implements simnet.Payload: the arc start only.
func (a Arc) SizeBytes() int { return a.Start.SizeBytes() }

// Contains reports whether the arc's owner owns key.
func (a Arc) Contains(key ID) bool { return betweenRightIncl(key, a.Start, a.Owner.ID) }

// FingerReq tells a node that the keys of the arc (From, To] moved to
// Owner: its finger K now names Owner if the finger's start lies there.
// The reply is the node's successor.
type FingerReq struct {
	From, To ID
	Owner    Ref
	K        int
}

// SizeBytes implements simnet.Payload.
func (r FingerReq) SizeBytes() int {
	return r.From.SizeBytes() + r.To.SizeBytes() + r.Owner.SizeBytes() + hopWidth(r.K)
}

// RefList carries a successor list.
type RefList struct {
	Refs []Ref
}

// SizeBytes implements simnet.Payload.
func (l RefList) SizeBytes() int {
	n := 4
	for _, r := range l.Refs {
		n += r.SizeBytes()
	}
	return n
}
