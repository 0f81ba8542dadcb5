package overlay

import (
	"fmt"
	"strings"
	"sync"

	"adhocshare/internal/chord"
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

	// seqMu guards lastSeq: the highest PutBatchReq.Seq applied per
	// publisher. A batch re-delivered after a lost reply carries the same
	// sequence and is acknowledged without re-applying, which is what makes
	// put_batch safe to retry even for relative (incrementing) frequencies.
	seqMu   sync.Mutex
	lastSeq map[simnet.Addr]uint64

	// hotMu guards hot: EnableAdaptive installs the detector with a plain
	// pointer store, and a handler may already be serving another
	// client's lookup on another goroutine. Readers take the pointer
	// through hotRef; hotState's own fields are guarded by its leaf mu.
	hotMu sync.Mutex
	// hot is the workload-adaptive hot-key state (nil unless
	// EnableAdaptive ran; see hot.go).
	hot *hotState
}

// hotRef snapshots the adaptive-state pointer (nil = detector off).
func (n *IndexNode) hotRef() *hotState {
	n.hotMu.Lock()
	defer n.hotMu.Unlock()
	return n.hot
}

// NewIndexNode creates an index node with the given ring identifier and
// registers it on the network. replication is the number of copies of each
// posting (1 = primary only).
func NewIndexNode(net *simnet.Network, addr simnet.Addr, id chord.ID, cfg chord.Config, replication int) *IndexNode {
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
		var stale []chord.ID
		for _, e := range r.Entries {
			n.Table.Set(e.Key, r.Node, e.Freq)
			if _, digest := n.Table.PostingDigest(e.Key, r.Node); digest != e.Digest {
				stale = append(stale, e.Key)
			}
		}
		if stale == nil {
			return simnet.Bytes(1), at, nil
		}
		return StaleKeys{Keys: stale}, at, nil
	case MethodReplicaRepair:
		r, ok := req.(TableRows)
		if !ok {
			return nil, at, fmt.Errorf("overlay: replica_repair payload %T", req)
		}
		n.Table.Replace(r.Rows)
		return simnet.Bytes(1), at, nil
	case MethodPutBatch:
		r, ok := req.(PutBatchReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: put_batch payload %T", req)
		}
		if r.Seq != 0 && n.seenSeq(r.Node, r.Seq) {
			return simnet.Bytes(1), at, nil
		}
		delta := ReplicaDelta{Node: r.Node, Entries: make([]DeltaEntry, len(r.Entries))}
		keys := make([]chord.ID, len(r.Entries))
		for i, e := range r.Entries {
			if r.Absolute {
				n.Table.Set(e.Key, r.Node, e.Freq)
			} else {
				n.Table.Add(e.Key, r.Node, e.Freq)
			}
			freq, digest := n.Table.PostingDigest(e.Key, r.Node)
			delta.Entries[i] = DeltaEntry{Key: e.Key, Freq: freq, Digest: digest}
			keys[i] = e.Key
		}
		resp, now, err := n.replicate(at, delta)
		n.refreshHot(keys, r.TC, now)
		return resp, now, err
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
	case MethodHotReplica:
		r, ok := req.(HotReplicaReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: hot_replica payload %T", req)
		}
		n.storeHotReplica(r)
		return simnet.Bytes(1), at, nil
	case MethodHotLookup:
		r, ok := req.(HotLookupReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: hot_lookup payload %T", req)
		}
		ps, hit := n.readHotReplica(r.Key, r.Epoch, at)
		return HotPostingsResp{Hit: hit, Postings: ps}, at, nil
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
		n.Table.DropNode(r.Node)
		n.refreshHot(nil, r.TC, at)
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
	default:
		return nil, at, fmt.Errorf("overlay: index node %s: unknown method %s", n.addr, method)
	}
}

// seenSeq records seq as applied for publisher node and reports whether it
// had already been applied (a retried shipment whose reply was lost).
func (n *IndexNode) seenSeq(node simnet.Addr, seq uint64) bool {
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	if seq <= n.lastSeq[node] {
		return true
	}
	n.lastSeq[node] = seq
	return false
}

// replicate syncs a put_batch to the next replication−1 live successors
// so the ring survives index-node failures (Sect. III-D's replication
// policy). Replication is synchronous and best-effort: a replica that stays
// unreachable after retries is skipped — the digest of its rows' next
// delta exposes what it missed — so the primary's ack never blocks on a
// dead successor.
func (n *IndexNode) replicate(at simnet.VTime, delta ReplicaDelta) (simnet.Payload, simnet.VTime, error) {
	now := at
	if n.replication > 1 {
		sent := 0
		for _, succ := range n.Chord.SuccessorList() {
			if sent >= n.replication-1 {
				break
			}
			if succ.Addr == n.addr {
				continue
			}
			done, err := n.syncReplica(succ.Addr, delta, now)
			now = done
			if err == nil {
				sent++
			}
		}
	}
	return simnet.Bytes(1), now, nil
}

// syncReplica sends a delta to one replica holder and, for the rows whose
// digest the holder reports stale, ships this node's whole rows in one
// index.replica_repair.
func (n *IndexNode) syncReplica(to simnet.Addr, delta ReplicaDelta, at simnet.VTime) (simnet.VTime, error) {
	resp, now, err := n.net.CallRetry(n.addr, to, MethodReplica, delta, at)
	stale, ok := resp.(StaleKeys)
	if err != nil || !ok {
		return now, err
	}
	rows := make(map[chord.ID][]Posting, len(stale.Keys))
	for _, key := range stale.Keys {
		rows[key] = n.Table.Get(key)
	}
	_, now, err = n.net.CallRetry(n.addr, to, MethodReplicaRepair, TableRows{Rows: rows}, now)
	return now, err
}

// JoinTransfer pulls the location-table rows the node is now responsible
// for from its successor: keys in (pred, self] (Sect. III-C). Call after
// the ring has stabilized around the new node.
func (n *IndexNode) JoinTransfer(at simnet.VTime) (simnet.VTime, error) {
	succ := n.Chord.Successor()
	if succ.Addr == n.addr {
		return at, nil
	}
	pred := n.Chord.Predecessor()
	from := pred.ID
	if pred.IsZero() {
		// Without a predecessor yet, claim everything up to our own id
		// that the successor does not own.
		from = succ.ID
	}
	resp, done, err := n.net.Call(n.addr, succ.Addr, MethodTransfer,
		TransferReq{From: from, To: n.ID()}, at)
	if err != nil {
		return done, fmt.Errorf("overlay: join transfer: %w", err)
	}
	n.Table.Merge(resp.(TableRows).Rows)
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
