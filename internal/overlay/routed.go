package overlay

// The index-node side of a routed read (MethodRoutedRead): a query-time
// lookup of keys outside the owner arcs its initiator holds travels from the
// origin's ring entry point one hop at a time, the hops taking the routing
// decisions chord.find_successor takes, and the predecessor of the keys'
// owner hands it on to the owner, which reads its location-table rows and
// answers the origin directly. No leg is acknowledged and nothing retraces
// the route: a read of one key costs hops + 3 legs from a storage node —
// the leg to the entry point, the forwards, the hand-on and the reply —
// where resolving the owner first and then reading from it cost
// 2·(hops + 1) + 2. A provider that holds the key's arc sends the hand-on
// itself, straight to the owner: 2 legs (LookupClient.read).

import (
	"errors"
	"fmt"

	"adhocshare/internal/chord"
	"adhocshare/internal/simnet"
)

// hopFailed reports whether a forward failed on its own leg, so the hop
// must fall back to another candidate. A hop learns of nothing beyond its
// own leg: a lost leg it never hears of (the origin's deadline charges
// it), and a failure further down the route — a *LookupError — is the
// route's from the hop it happened at.
func hopFailed(err error) bool {
	if err == nil || simnet.IsLost(err) {
		return false
	}
	var le *LookupError
	return !errors.As(err, &le)
}

// routeKey is one hop of a routed read of one key, the step
// chord.find_successor takes: the successor owns the key and the read is
// handed on to it, or the read is forwarded to the next hop, falling back
// along the eager candidate order — evicting a dead candidate — when that
// hop is down.
func (n *IndexNode) routeKey(at simnet.VTime, r RoutedReadReq) (simnet.Payload, simnet.VTime, error) {
	next, owned := n.Chord.NextHop(r.Keys[0])
	if owned {
		return n.deliverRead(at, RoutedReadReq{Keys: r.Keys, Origin: r.Origin, Epoch: r.Epoch, Hops: r.Hops, TC: r.TC.Child(0)}, next)
	}
	now := at
	cands := []chord.Ref{next} // one routing decision; the rest once it fails
	for ci := 0; ci < len(cands) && !cands[ci].IsZero(); ci++ {
		next := cands[ci]
		fwd := RoutedReadReq{Keys: r.Keys, Origin: r.Origin, Epoch: r.Epoch, Hops: r.Hops + 1, TC: r.TC.Child(uint64(ci))}
		resp, done, err := n.net.Forward(n.addr, next.Addr, MethodRoutedRead, fwd, "", now)
		if !hopFailed(err) {
			return resp, done, err
		}
		now = done
		if ci == 0 {
			// Read before HopFailed's eviction: the list this hop headed.
			cands = n.Chord.RouteCandidates(r.Keys[0])
		}
		n.Chord.HopFailed(next.Addr, MethodRoutedRead, r.TC.Query, err, now)
	}
	return nil, now, &LookupError{Method: MethodRoutedRead,
		Err: fmt.Errorf("%w: key %v from %v", chord.ErrLookupFailed, r.Keys[0], n.ID())}
}

// routeKeys is routeKey for a read of several keys: one routing decision per
// key under one lock (chord RouteBatch). The keys the successor owns are
// handed on to it together, the others forwarded as one sub-read per next
// hop, all branches leaving at once, so each route prefix the keys share
// is walked once. The forwards the read has not counted yet go with its
// first branch. A branch whose next hop is down falls back, after the
// fan-out and from the branch's timeout, to routing its keys one by one.
func (n *IndexNode) routeKeys(at simnet.VTime, r RoutedReadReq) (simnet.Payload, simnet.VTime, error) {
	owners := make([]chord.Ref, len(r.Keys))
	order, groups, err := n.Chord.RouteBatch(r.Keys, owners)
	if err != nil {
		return nil, at, &LookupError{Method: MethodRoutedRead, Err: err}
	}
	var (
		owner chord.Ref
		owned []chord.ID
	)
	for i, o := range owners {
		if !o.IsZero() {
			owner, owned = o, append(owned, r.Keys[i])
		}
	}
	first := 0 // branches before it hand the owned keys on
	if len(owned) > 0 {
		first = 1
	}
	subs := make([]RoutedReadReq, first+len(order))
	for b := range subs {
		sub := RoutedReadReq{Keys: owned, Origin: r.Origin, Epoch: r.Epoch, TC: r.TC.Child(uint64(b))}
		if b >= first {
			idxs := groups[order[b-first]]
			sub.Keys = make([]chord.ID, len(idxs))
			for j, i := range idxs {
				sub.Keys[j] = r.Keys[i]
			}
			sub.Hops = 1
		}
		if b == 0 {
			sub.Hops += r.Hops
		}
		subs[b] = sub
	}
	// A key without its row leaves a pattern without its target set, so a
	// branch lost or failed further down fails the whole read, which its
	// origin re-sends.
	results, done := simnet.Parallel(len(subs), 0, func(b int) (simnet.Payload, simnet.VTime, error) {
		if b < first {
			return n.deliverRead(at, subs[b], owner)
		}
		return n.net.Forward(n.addr, order[b-first], MethodRoutedRead, subs[b], "", at)
	})
	done = simnet.MaxTime(at, done)
	out := &readReplies{}
	for b, res := range results {
		if b >= first && hopFailed(res.Err) {
			next := order[b-first]
			n.Chord.HopFailed(next, MethodRoutedRead, r.TC.Query, res.Err, res.Done)
			now := res.Done
			for j, i := range groups[next] {
				// Fallback sequence numbers start past the branch indexes so
				// they never collide with the parallel sub-reads above.
				sub := RoutedReadReq{Keys: r.Keys[i : i+1], Origin: r.Origin, Epoch: r.Epoch,
					TC: r.TC.Child(uint64(len(subs) + i))}
				if j == 0 {
					sub.Hops = subs[b].Hops - 1
				}
				resp, fdone, ferr := n.routeKey(now, sub)
				now = fdone
				if ferr != nil {
					return nil, simnet.MaxTime(done, now), ferr
				}
				out.add(resp, fdone)
			}
			done = simnet.MaxTime(done, now)
			continue
		}
		if res.Err != nil {
			return nil, done, res.Err
		}
		out.add(res.Value, res.Done)
	}
	return out, done, nil
}

// deliverRead hands r on to owner, this node's successor, which answers the
// origin itself; r.TC is the hand-on's context. An owner found down is
// stood in for by the successors after it that hold its replica rows —
// Replication − 1 of them, in successor-list order, each hand-on traced
// under the first; when none answers, the error names the owner.
func (n *IndexNode) deliverRead(at simnet.VTime, r RoutedReadReq, owner chord.Ref) (simnet.Payload, simnet.VTime, error) {
	handOn := func(i int) RoutedReadReq {
		tc := r.TC
		if i > 0 {
			tc = r.TC.Child(uint64(i))
		}
		return RoutedReadReq{Keys: r.Keys, Origin: r.Origin, Epoch: r.Epoch, Hops: r.Hops, Owned: true, TC: tc}
	}
	resp, done, err := n.net.Forward(n.addr, owner.Addr, MethodRoutedRead, handOn(0), r.Origin, at)
	if !hopFailed(err) {
		return resp, done, err
	}
	holders := n.Chord.SuccessorList()
	for i := 1; i < n.replication && i < len(holders); i++ {
		resp, done, err = n.net.Forward(n.addr, holders[i].Addr, MethodRoutedRead, handOn(i), r.Origin, done)
		if !hopFailed(err) {
			return resp, done, err
		}
	}
	return nil, done, &LookupError{Method: MethodRoutedRead, Owner: owner.Addr, Err: err}
}

// answerRead is the owner's end of a routed read: the rows of r's keys for
// its origin. An adaptive read (non-zero epoch) also counts each key's
// lookup and may advertise the holders of a hot key's replica rows.
func (n *IndexNode) answerRead(r RoutedReadReq, at simnet.VTime) *RoutedReadResp {
	resp := newReadResp(r, n.addr)
	for k, key := range r.Keys {
		row := PostingsResp{Postings: n.Table.Get(key)}
		if n.hot != nil && r.Epoch != 0 {
			if row.Replicas = n.adaptiveTail(key, at); row.Replicas != nil {
				row.Epoch = r.Epoch
			}
		}
		resp.Rows[k] = row
	}
	return resp
}

// newReadResp allocates the reply to r; a one-key reply and its row share
// one allocation, which keeps a point lookup's allocations down.
func newReadResp(r RoutedReadReq, owner simnet.Addr) *RoutedReadResp {
	if len(r.Keys) == 1 {
		one := new(struct {
			resp RoutedReadResp
			row  [1]PostingsResp
		})
		one.resp = RoutedReadResp{Keys: r.Keys, Rows: one.row[:], Hops: int(r.Hops), Owner: owner}
		return &one.resp
	}
	return &RoutedReadResp{Keys: r.Keys, Rows: make([]PostingsResp, len(r.Keys)), Hops: int(r.Hops), Owner: owner}
}

// readReplies is what a hop whose read split hands back up the
// simulation's call stack: the owners' replies its sub-reads produced, each
// with when it reached the origin. It never goes on the wire.
type readReplies struct {
	replies []*RoutedReadResp
	arrived []simnet.VTime
}

// SizeBytes implements simnet.Payload: what the replies carried.
func (r *readReplies) SizeBytes() int {
	n := 0
	for _, rep := range r.replies {
		n += rep.SizeBytes()
	}
	return n
}

// add takes in what a sub-read returned at `at`: one owner's reply, or the
// replies of a further split.
func (r *readReplies) add(p simnet.Payload, at simnet.VTime) {
	switch p := p.(type) {
	case *RoutedReadResp:
		r.replies, r.arrived = append(r.replies, p), append(r.arrived, at)
	case *readReplies:
		r.replies, r.arrived = append(r.replies, p.replies...), append(r.arrived, p.arrived...)
	}
}
