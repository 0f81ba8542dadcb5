package overlay

import (
	"fmt"
	"slices"
	"strings"

	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/simnet"
)

// IndexNode is a ring member willing to host index entries for others
// (Sect. III-A). It embeds a Chord node for routing and owns a location
// table; it also holds replica rows for its predecessors so that the
// system survives index-node failures (Sect. III-D).
type IndexNode struct {
	Chord *chord.Node
	Table *LocationTable

	net         *simnet.Network
	addr        simnet.Addr
	replication int
	// hot is the workload-adaptive hot-key state (nil = detector off; see
	// hot.go), installed at construction: its own fields are guarded by
	// its leaf mu.
	hot *hotState

	// seqMu guards lastSeq: the highest PutBatchReq.Seq applied per
	// publisher. A batch re-sent after a lost leg carries the same sequence
	// and is not applied again, only its delta re-sent down the chain, which
	// makes put_batch safe to retry even for relative frequencies.
	seqMu   lockcheck.Mutex
	lastSeq map[simnet.Addr]uint64

	// joinMu guards joining and held. At Replication 1 a joiner's rows move
	// to it from its successor, so from the ring join until JoinTransfer
	// has merged them the joiner holds every put_batch write and drop_node
	// routed to it and then applies them, in arrival order, over the moved
	// rows: a retraction or drop applied first would find no posting, and
	// the moved row would bring the posting back.
	joinMu  lockcheck.Mutex
	joining bool
	held    []heldWrite
}

// heldWrite is a put_batch write, or with drop set a drop_node, that a
// joiner holds until its JoinTransfer.
type heldWrite struct {
	node    simnet.Addr
	entries []DeltaEntry
	w       BatchWrite
	drop    bool
}

// awaitTransfer makes a node about to join a ring at Replication 1 hold its
// put_batch writes and drop_nodes until JoinTransfer.
func (n *IndexNode) awaitTransfer() {
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	n.joining = n.replication == 1
}

// holdJoinWrite keeps a copy of node's write for endJoin while the node
// awaits its JoinTransfer, and reports whether it did.
func (n *IndexNode) holdJoinWrite(node simnet.Addr, entries []DeltaEntry, w BatchWrite) bool {
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	if n.joining {
		n.held = append(n.held, heldWrite{node: node, entries: slices.Clone(entries), w: w})
	}
	return n.joining
}

// dropNode drops node's postings. A node awaiting its JoinTransfer also
// holds the drop for endJoin: the rows moving to it may still carry them.
func (n *IndexNode) dropNode(node simnet.Addr) {
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	n.Table.DropNode(node)
	if n.joining {
		n.held = append(n.held, heldWrite{node: node, drop: true})
	}
}

// endJoin merges the rows a join at Replication 1 moved here, then applies
// the writes and drops held since the join, in arrival order.
func (n *IndexNode) endJoin(rows map[chord.ID][]Posting) {
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	n.Table.Merge(rows)
	for _, h := range n.held {
		if h.drop {
			n.Table.DropNode(h.node)
		} else {
			n.Table.WriteBatch(h.node, h.entries, h.w)
		}
	}
	n.joining, n.held = false, nil
}

// NewIndexNode creates an index node with the given ring identifier and
// registers it on the network. replication is the number of copies of each
// posting (1 = primary only); adaptive turns on the hot-key detector.
func NewIndexNode(net *simnet.Network, addr simnet.Addr, id chord.ID, cfg chord.Config, replication int, adaptive bool) *IndexNode {
	if replication < 1 {
		replication = 1
	}
	n := &IndexNode{
		Chord:       chord.NewNode(net, addr, id, cfg),
		Table:       NewLocationTable(),
		net:         net,
		addr:        addr,
		replication: replication,
		lastSeq:     make(map[simnet.Addr]uint64),
	}
	if adaptive {
		n.hot = newHotState()
	}
	net.Register(addr, simnet.HandlerFunc(n.HandleCall))
	return n
}

// Addr returns the node's network address.
func (n *IndexNode) Addr() simnet.Addr { return n.addr }

// ID returns the node's ring identifier.
func (n *IndexNode) ID() chord.ID { return n.Chord.ID() }

// HandleCall dispatches index methods and delegates "chord." methods to
// the embedded ring member.
func (n *IndexNode) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if strings.HasPrefix(method, "chord.") {
		return n.Chord.HandleCall(at, method, req)
	}
	switch method {
	case MethodReplica:
		r, ok := req.(ReplicaDelta)
		if !ok {
			return nil, at, fmt.Errorf("overlay: replicate payload %T", req)
		}
		stale := n.Table.ApplyDelta(r.Node, r.Entries)
		now := at
		if stale != nil {
			// A failed pull is left to the next delta's digests.
			resp, done, err := n.net.CallRetry(n.addr, r.From, MethodReplicaRepair, StaleKeys{Keys: stale}, at)
			if rows, ok := resp.(TableRows); ok && err == nil {
				n.Table.Replace(rows.Rows)
			}
			now = done
		}
		return n.replicate(now, r)
	case MethodReplicaRepair:
		r, ok := req.(StaleKeys)
		if !ok {
			return nil, at, fmt.Errorf("overlay: replica_repair payload %T", req)
		}
		return TableRows{Rows: n.Table.Rows(r.Keys)}, at, nil
	case MethodPutBatch:
		// The request is the publisher's: a lost leg re-sends the same
		// pointer under the same Seq, so the handler never writes through it.
		r, ok := req.(*PutBatchReq)
		if !ok || r == nil {
			return nil, at, fmt.Errorf("overlay: put_batch payload %T", req)
		}
		apply := r.Seq == 0 || !n.seenSeq(r.Node, r.Seq)
		w := BatchRead
		switch {
		case !apply:
		case r.Absolute:
			w = BatchSet
		default:
			w = BatchAdd
		}
		delta := ReplicaDelta{Node: r.Node, Entries: make([]DeltaEntry, len(r.Entries)), Left: n.replication - 1, TC: r.TC}
		for i, e := range r.Entries {
			delta.Entries[i] = DeltaEntry{Key: e.Key, Freq: e.Freq}
		}
		if w != BatchRead && n.holdJoinWrite(r.Node, delta.Entries, w) {
			w = BatchRead
		}
		n.Table.WriteBatch(r.Node, delta.Entries, w)
		return n.replicate(at, delta)
	case MethodRoutedRead:
		r, ok := req.(RoutedReadReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: routed_read payload %T", req)
		}
		if r.Owned {
			return n.answerRead(r, at), at, nil
		}
		if len(r.Keys) == 1 {
			return n.routeKey(at, r)
		}
		return n.routeKeys(at, r)
	case MethodHotLookup:
		r, ok := req.(HotLookupReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: hot_lookup payload %T", req)
		}
		// Any holder of the key's row answers, the owner included, but
		// only with the row the reader last had from the owner.
		row := n.Table.Get(r.Key)
		if rowDigest(row) != r.Digest {
			return HotPostingsResp{}, at, nil
		}
		return HotPostingsResp{Hit: true, Postings: row}, at, nil
	case MethodTransfer:
		r, ok := req.(TransferReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: transfer payload %T", req)
		}
		// Under replication the successor stays the joiner's first replica
		// holder, so it keeps its copy of the range; at Replication 1 the
		// rows move.
		if n.replication > 1 {
			return TableRows{Rows: n.Table.CopyRange(r.From, r.To)}, at, nil
		}
		return TableRows{Rows: n.Table.ExtractRange(r.From, r.To)}, at, nil
	case MethodHandover:
		r, ok := req.(TableRows)
		if !ok {
			return nil, at, fmt.Errorf("overlay: handover payload %T", req)
		}
		// The leaver's snapshot is authoritative for every row it carries,
		// and under Replication ≥ 2 this node already holds replica copies
		// of the leaver's primary rows: overwrite, never sum.
		n.Table.Replace(r.Rows)
		return simnet.Bytes(1), at, nil
	case MethodDropNode:
		r, ok := req.(DropNodeReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: drop_node payload %T", req)
		}
		n.dropNode(r.Node)
		now := at
		if r.Propagate && n.replication > 1 {
			sent := 0
			for _, succ := range n.Chord.SuccessorList() {
				if sent >= n.replication-1 {
					break
				}
				if succ.Addr == n.addr {
					continue
				}
				_, done, err := n.net.CallRetry(n.addr, succ.Addr, MethodDropNode,
					DropNodeReq{Node: r.Node, TC: r.TC.Child(uint64(sent + 1))}, now)
				now = done
				if err == nil {
					sent++
				}
			}
		}
		return simnet.Bytes(1), now, nil
	case MethodDispatch, MethodShip, MethodResult:
		return req, at, nil // delivered: the node holds it from here on
	default:
		return nil, at, fmt.Errorf("overlay: index node %s: unknown method %s", n.addr, method)
	}
}

// seenSeq records seq as applied for publisher node and reports whether it
// had already been applied (a shipment re-sent after a leg of its write
// chain was lost).
func (n *IndexNode) seenSeq(node simnet.Addr, seq uint64) bool {
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	if seq <= n.lastSeq[node] {
		return true
	}
	n.lastSeq[node] = seq
	return false
}

// replicate is one link of a put_batch's write chain (Sect. III-D's
// replication, acknowledged from the tail as in chain replication): with
// delta.Left holders still to write, it forwards delta to the first live
// link after this one (chainLink); else it acknowledges the publisher,
// returning when the ack arrived. A successor found down is skipped (its
// rows' next digests expose what it missed); a lost leg is returned as it
// is, for the publisher to re-send.
func (n *IndexNode) replicate(at simnet.VTime, delta ReplicaDelta) (simnet.Payload, simnet.VTime, error) {
	now := at
	var list []chord.Ref
	for i := 0; delta.Left > 0 && len(delta.Entries) > 0; i++ {
		succ, ok := n.chainLink(delta.Entries[0].Key, i, &list)
		if !ok {
			break
		}
		next := ReplicaDelta{Node: delta.Node, From: n.addr, Entries: delta.Entries, Left: delta.Left - 1, TC: delta.TC.Child(uint64(i))}
		resp, done, err := n.net.Forward(n.addr, succ.Addr, MethodReplica, next, "", now)
		if err == nil || simnet.IsLost(err) {
			return resp, done, err
		}
		now = done
	}
	done, err := n.net.Reply(n.addr, delta.Node, MethodPutBatch, simnet.Bytes(1), delta.TC, now)
	return simnet.Bytes(1), done, err
}

// chainLink is the i-th candidate for the link after this node in a write
// chain of key: its successor first, then the rest of its successor list,
// which *list caches — copied only once a candidate past the first is
// asked for. ok is false once the list runs out, or where an arc from here
// to the candidate holds key: the chain has wrapped round to the key's
// owner. replicate() and adaptiveTail walk the same candidates, so the
// holders a hot key is advertised with are the ones its writes reach.
func (n *IndexNode) chainLink(key chord.ID, i int, list *[]chord.Ref) (chord.Ref, bool) {
	var succ chord.Ref
	if i == 0 {
		succ = n.Chord.Successor()
	} else {
		if *list == nil {
			*list = n.Chord.SuccessorList()
		}
		if i >= len(*list) {
			return chord.Ref{}, false
		}
		succ = (*list)[i]
	}
	return succ, !(chord.Arc{Start: n.ID(), Owner: succ}).Contains(key)
}

// JoinTransfer pulls the location-table rows the node is now responsible
// for from its successor: keys in (pred, self] (Sect. III-C). Call after
// the ring has stabilized around the new node.
func (n *IndexNode) JoinTransfer(at simnet.VTime) (simnet.VTime, error) {
	succ := n.Chord.Successor()
	var rows map[chord.ID][]Posting // none when the node is alone
	done := at
	if succ.Addr != n.addr {
		pred := n.Chord.Predecessor()
		from := pred.ID
		if pred.IsZero() {
			// Without a predecessor yet, claim everything up to our own id
			// that the successor does not own.
			from = succ.ID
		}
		resp, end, err := n.net.Call(n.addr, succ.Addr, MethodTransfer,
			TransferReq{From: from, To: n.ID()}, at)
		if err != nil {
			return end, fmt.Errorf("overlay: join transfer: %w", err)
		}
		rows, done = resp.(TableRows).Rows, end
	}
	// The ring routes the slice here before the rows arrive. Under
	// replication an edit that landed in between reached the successor
	// down this node's write chain, so the copy already holds it: install
	// the copy, never sum. At Replication 1 the rows moved, and such an
	// edit is held here until they arrive.
	if n.replication > 1 {
		n.Table.Replace(rows)
	} else {
		n.endJoin(rows)
	}
	return done, nil
}

// LeaveGraceful hands the whole location table to the successor and
// retires from the ring (Sect. III-D).
func (n *IndexNode) LeaveGraceful(at simnet.VTime) (simnet.VTime, error) {
	succ := n.Chord.Successor()
	now := at
	if succ.Addr != n.addr {
		rows := n.Table.Snapshot()
		if len(rows) > 0 {
			_, done, err := n.net.Call(n.addr, succ.Addr, MethodHandover, TableRows{Rows: rows}, now)
			now = done
			if err != nil {
				return now, fmt.Errorf("overlay: handover: %w", err)
			}
		}
	}
	now = n.Chord.Leave(now)
	n.net.Deregister(n.addr)
	return now, nil
}
