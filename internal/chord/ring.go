package chord

import (
	"cmp"
	"fmt"
	"sort"

	"adhocshare/internal/simnet"
)

// Standalone registers the node directly as the simnet handler for its
// address. The overlay index node instead embeds the chord node and
// delegates; Standalone is for pure-DHT deployments and tests.
func (n *Node) Standalone() {
	n.net.Register(n.addr, simnet.HandlerFunc(n.HandleCall))
}

// BuildRing constructs a converged ring from the given (addr, id) pairs on
// the network: the first node creates the ring, the rest join through it,
// and stabilization runs until pointers converge. It returns the nodes
// sorted by identifier and the virtual completion time.
//
// Nodes are registered standalone; callers embedding chord nodes in larger
// handlers should drive Create/Join/Stabilize themselves.
func BuildRing(net *simnet.Network, refs []Ref, cfg Config, at simnet.VTime) ([]*Node, simnet.VTime, error) {
	if len(refs) == 0 {
		return nil, at, fmt.Errorf("chord: empty ring")
	}
	nodes := make([]*Node, len(refs))
	for i, r := range refs {
		nodes[i] = NewNode(net, r.Addr, r.ID, cfg)
		nodes[i].Standalone()
	}
	nodes[0].Create()
	now := at
	for _, n := range nodes[1:] {
		done, err := n.Join(nodes[0].Addr(), now)
		now = done
		if err != nil {
			return nil, now, err
		}
		// A couple of immediate stabilization rounds keep the ring usable
		// while the remaining nodes join.
		now = n.Stabilize(now)
		now = nodes[0].Stabilize(now)
	}
	now = Converge(nodes, now)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	return nodes, now, nil
}

// Converge runs stabilization rounds until every live node's predecessor
// and successor list match the ideal ring over the live nodes (or the
// round budget runs out), then refreshes all finger tables. It ends on the
// ideal ring: each pointer names the live successor of its start. It
// returns the virtual completion time.
func Converge(nodes []*Node, at simnet.VTime) simnet.VTime {
	now := at
	for round := 0; round < 2*len(nodes)+4; round++ {
		for _, n := range nodes {
			if !n.net.Alive(n.Addr()) {
				continue
			}
			now = n.Stabilize(now)
		}
		if ringConsistent(nodes) {
			break
		}
	}
	for _, n := range nodes {
		if !n.net.Alive(n.Addr()) {
			continue
		}
		now = n.FixAllFingers(now)
	}
	return now
}

// StabilizeRound runs one maintenance round (stabilize, one finger fix,
// predecessor check) on every live node — the periodic tasks of Chord
// driven deterministically by the simulation.
func StabilizeRound(nodes []*Node, at simnet.VTime) simnet.VTime {
	now := at
	for _, n := range nodes {
		if !n.net.Alive(n.Addr()) {
			continue
		}
		now = n.Stabilize(now)
		now = n.FixFingers(now)
		now = n.CheckPredecessor(now)
	}
	return now
}

// ringConsistent checks that every live node's successor list holds the
// next min(r, live−1) live nodes in identifier order — a ring of one
// points at itself — and that every node of a larger ring has its
// predecessor.
func ringConsistent(nodes []*Node) bool {
	var live []*Node
	for _, n := range nodes {
		if n.net.Alive(n.Addr()) {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID() < live[j].ID() })
	for i, n := range live {
		list := n.SuccessorList()
		if len(list) != max(1, min(n.cfg.SuccListSize, len(live)-1)) {
			return false
		}
		for j, r := range list {
			if r.Addr != live[(i+1+j)%len(live)].Addr() {
				return false
			}
		}
		if len(live) > 1 && n.Predecessor().Addr != live[(i+len(live)-1)%len(live)].Addr() {
			return false
		}
	}
	return true
}

// Repair sizes a graceful membership repair: the successor lists it
// refreshed, a joiner's own excluded, and the fingers chord.update_finger
// set.
type Repair struct {
	Lists, Fingers int
}

// RepairJoin brings a ring that was ideal before j joined it (Join, no
// stabilization since) back to the ideal ring, touching only the pointers
// the join moved (Sect. III-C). j stabilizes, notifying its successor S;
// S's old predecessor P stabilizes, taking j as successor and j's list;
// the r−1 nodes before P refresh their lists, nearest first, each reading
// the list refreshed just before; j builds its fingers (buildFingers); and
// every finger whose start lies in (P, j] is re-pointed at j
// (updateFingers). nodes are the ring's members, j among them. A failed
// leg does not stop the repair; the first failure's error says the ring
// may not be ideal.
//
// After a failed leg the overlay counts the ring unconverged, and the next
// membership event's full Converge rewrites every pointer.
func RepairJoin(nodes []*Node, j *Node, at simnet.VTime) (Repair, simnet.VTime, error) {
	byAddr := addrIndex(nodes)
	s := byAddr[j.Successor().Addr]
	p := s // a ring of one
	if s != nil && s.Successor().Addr != s.Addr() {
		p = byAddr[s.Predecessor().Addr]
	}
	if p == nil || s == j {
		return Repair{}, at, fmt.Errorf("chord: repair join of %v: neighbours unknown", j.ID())
	}
	now, err := j.stabilize(at)
	now, perr := p.stabilize(now)
	err = cmp.Or(err, perr)
	lists, now, perr := refreshBefore(byAddr, p, j, j.cfg.SuccListSize-1, now)
	err = cmp.Or(err, perr)
	now, perr = j.buildFingers(now)
	err = cmp.Or(err, perr)
	fingers, now, perr := updateFingers(j, FingerReq{From: p.ID(), To: j.ID(), Owner: j.Ref()}, len(nodes), now)
	if err = cmp.Or(err, perr); err != nil {
		err = fmt.Errorf("chord: repair join of %v: %w", j.ID(), err)
	}
	return Repair{Lists: 1 + lists, Fingers: fingers}, now, err
}

// RepairLeave brings a ring that was ideal before l left it gracefully
// (Leave, which rewired l's predecessor P and successor S, then l's
// deregistration) back to the ideal ring, touching only the pointers the
// leave moved (Sect. III-D): the r nodes before l's old position refresh
// their lists, P first, and every finger that named l — its start in
// (P, l] — is re-pointed at S (updateFingers, driven from S). nodes are
// the remaining members. Failures are reported as RepairJoin reports them.
func RepairLeave(nodes []*Node, l *Node, at simnet.VTime) (Repair, simnet.VTime, error) {
	byAddr := addrIndex(nodes)
	p, s := byAddr[l.Predecessor().Addr], byAddr[l.Successor().Addr]
	if p == nil || s == nil {
		return Repair{}, at, fmt.Errorf("chord: repair leave of %v: neighbours unknown", l.ID())
	}
	now, err := p.refreshSuccList(at)
	lists, now, perr := refreshBefore(byAddr, p, nil, l.cfg.SuccListSize-1, now)
	err = cmp.Or(err, perr)
	fingers, now, perr := updateFingers(s, FingerReq{From: p.ID(), To: l.ID(), Owner: s.Ref()}, len(nodes), now)
	if err = cmp.Or(err, perr); err != nil {
		err = fmt.Errorf("chord: repair leave of %v: %w", l.ID(), err)
	}
	return Repair{Lists: 1 + lists, Fingers: fingers}, now, err
}

// addrIndex maps the members' addresses to their nodes.
func addrIndex(nodes []*Node) map[simnet.Addr]*Node {
	out := make(map[simnet.Addr]*Node, len(nodes))
	for _, n := range nodes {
		out[n.Addr()] = n
	}
	return out
}

// refreshBefore has up to count nodes before from refresh their successor
// lists, nearest first, so each reads a list refreshed just before. The
// walk follows predecessor pointers and ends early at stop, back at from,
// or at a node it does not know. It returns the number of lists refreshed.
func refreshBefore(byAddr map[simnet.Addr]*Node, from, stop *Node, count int, at simnet.VTime) (int, simnet.VTime, error) {
	now := at
	var first error
	done := 0
	for x := byAddr[from.Predecessor().Addr]; done < count && x != nil && x != from && x != stop; x = byAddr[x.Predecessor().Addr] {
		var err error
		now, err = x.refreshSuccList(now)
		first = cmp.Or(first, err)
		done++
	}
	return done, now, first
}

// updateFingers re-points every finger whose start lies in the moved arc
// (moved.From, moved.To] at moved.Owner: the original Chord join's
// update_others, all m finger indexes in parallel. The nodes whose finger
// k starts in the arc are those in (From − 2^k, To − 2^k]; driver finds
// the first of each k in one batch resolve and walks on through the
// successors each chord.update_finger reply names, at most limit nodes
// (its own update is a free self-call). It returns the number of fingers
// set.
//
// The resolve's eviction of a departed node only clears fingers this fan-out
// re-points.
func updateFingers(driver *Node, moved FingerReq, limit int, at simnet.VTime) (int, simnet.VTime, error) {
	bits := driver.cfg.Bits
	firsts := make([]ID, bits)
	for k := range firsts {
		firsts[k] = (moved.From - ID(1)<<k + 1).truncate(bits)
	}
	heads, start, err := driver.handleFindSuccessorBatch(at, BatchFindReq{Targets: firsts})
	if err != nil {
		return 0, start, err
	}
	// A failed branch leaves its finger index stale on the nodes it did
	// not reach; the error reaches the caller, which then counts the ring
	// as unconverged, so the next membership event runs the full Converge.
	results, done := simnet.Parallel(int(bits), 0, func(k int) (int, simnet.VTime, error) {
		req := moved
		req.K = k
		head, now := heads.Nodes[k], start
		sent := 0
		for cur := head; sent < limit && betweenRightIncl(cur.ID.add(uint(k), bits), moved.From, moved.To); {
			resp, d, err := driver.net.CallRetry(driver.addr, cur.Addr, MethodUpdateFinger, req, now)
			now = d
			if err != nil {
				return sent, now, err
			}
			sent++
			if cur = resp.(Ref); cur.Addr == head.Addr {
				break
			}
		}
		return sent, now, nil
	})
	fingers := 0
	var first error
	for _, r := range results {
		fingers += r.Value
		first = cmp.Or(first, r.Err)
	}
	return fingers, simnet.MaxTime(start, done), first
}
