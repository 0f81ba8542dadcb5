package overlay

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// TestOwnerArcsAgreeWithRing holds publication's owner arcs to the ring. On
// random rings (Bits 8–24, 2–64 index nodes, and a ring of one) providers
// publish and retract while index nodes join, leave gracefully, crash and
// recover and the ring stabilizes. After every step, each key that a
// provider's arcs answer in the current epoch, with a live owner, is owned
// by the index node System.ResolveKey finds from that provider. The keys
// checked are the published ones, both ends of every arc and a random
// sample; the wrap-around arc (start past the owner) and the one-node
// ring's whole-circle arc must each answer some of them, and so must the
// arcs a graceful join split or a graceful leave re-owned. Each trial then
// converges the ring and runs 20 join/leave cycles of one node, after
// which every provider holds as many arcs as before the cycle: a join adds
// one arc and a leave takes it away again. Every trial ends on a forced
// crash, stabilize rounds, recovery, publish and join: the arcs learned
// while the ring routes around the recovered node must not survive the
// join that converges it.
func TestOwnerArcsAgreeWithRing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	hits, wrapHits, wholeHits, movedHits := 0, 0, 0, 0
	for trial := 0; trial < 8; trial++ {
		bits := uint(8 + rng.Intn(17))
		size := 2 + rng.Intn(63)
		switch trial {
		case 0:
			bits, size = 24, 64
		case 1:
			size = 1
		}
		s, storage, keys, now := randomSystem(t, rng, bits, size, 1+rng.Intn(2))
		mask := chord.ID(1)<<bits - 1
		joined := 0
		var failed []simnet.Addr
		// before holds each provider's arcs before a graceful join or
		// leave, nil before any other step: an arc not in it was split or
		// re-owned by the event.
		var before map[simnet.Addr][]chord.Arc
		snapshot := func() {
			before = map[simnet.Addr][]chord.Arc{}
			for _, p := range storage {
				node, _ := s.Storage(p)
				before[p] = slices.Clone(node.arcs)
			}
		}

		check := func(step string) {
			t.Helper()
			epoch := s.Epoch()
			for _, p := range storage {
				node, _ := s.Storage(p)
				probes := append([]chord.ID(nil), keys...)
				for _, a := range node.arcs {
					probes = append(probes, a.Start, (a.Start+1)&mask, a.Owner.ID, (a.Owner.ID+1)&mask)
				}
				for i := 0; i < 16; i++ {
					probes = append(probes, chord.ID(rng.Uint64())&mask)
				}
				for _, key := range probes {
					arc, ok := node.ownerArc(epoch, key)
					if !ok || !s.Net().Alive(arc.Owner.Addr) {
						continue
					}
					want, _, _, err := s.ResolveKey(p, key, now)
					if err != nil {
						continue // the ring cannot route this key at the moment
					}
					if arc.Owner.Addr != want {
						t.Fatalf("bits %d, %d nodes, after %s: %s's arc (%v, %v] gives %v to %s, the ring to %s",
							bits, size, step, p, arc.Start, arc.Owner.ID, key, arc.Owner.Addr, want)
					}
					hits++
					if before != nil && !slices.Contains(before[p], arc) {
						movedHits++
					}
					switch {
					case arc.Start == arc.Owner.ID:
						wholeHits++
					case arc.Start > arc.Owner.ID:
						wrapHits++
					}
				}
			}
		}

		check("set-up")
		for step := 0; step < 14; step++ {
			var err error
			var what string
			before = nil
			live := liveIndex(s)
			switch op := rng.Intn(7); {
			case op <= 1:
				p := storage[rng.Intn(len(storage))]
				var triples []rdf.Triple
				for j := 0; j < 1+rng.Intn(4); j++ {
					tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", rng.Intn(9))), P: fp([]string{"knows", "name", "mbox", "likes"}[rng.Intn(4)]), O: ex(fmt.Sprintf("o%d", rng.Intn(9)))}
					triples = append(triples, tr)
					k := TripleKeys(tr, bits)
					keys = append(keys, k[:]...)
				}
				what = "publish at " + string(p)
				if op == 0 {
					now, err = s.Publish(p, triples, now)
				} else {
					node, _ := s.Storage(p)
					now, err = s.Retract(p, node.Graph.Triples()[:min(2, node.Graph.Size())], now)
					what = "retract at " + string(p)
				}
			case op == 2:
				addr := simnet.Addr(fmt.Sprintf("idx-join-%d", joined))
				joined++
				what = "join of " + string(addr)
				snapshot()
				_, now, err = s.AddIndexNode(addr, now)
			case op == 3 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				what = "graceful leave of " + string(addr)
				snapshot()
				now, err = s.RemoveIndexGraceful(addr, now)
			case op == 4 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				what = "crash of " + string(addr)
				s.FailNode(addr)
				failed = append(failed, addr)
			case op == 5 && len(failed) > 0:
				addr := failed[0]
				failed = failed[1:]
				what = "recovery of " + string(addr)
				s.RecoverNode(addr)
			default:
				what = "stabilize round"
				now = s.StabilizeRound(now)
			}
			// A failed edit or membership event is compensated; the arcs
			// must agree with the ring either way.
			if err != nil {
				t.Logf("bits %d, %d nodes: %s: %v", bits, size, what, err)
			}
			check(what)
		}

		// The cycles: on a converged ring, with every provider's arcs
		// relearned, one node joins at the first published key that is
		// no member's ID and leaves again, 20 times.
		now = s.Converge(now)
		check("converge before the cycles")
		held := map[simnet.Addr]int{}
		for _, p := range storage {
			var err error
			if now, err = s.Republish(p, now); err != nil {
				t.Fatalf("bits %d, %d nodes: republish at %s: %v", bits, size, p, err)
			}
			node, _ := s.Storage(p)
			held[p] = len(node.arcs)
		}
		var ids []chord.ID
		for _, n := range s.IndexNodes() {
			ids = append(ids, n.ID())
		}
		at := slices.IndexFunc(keys, func(k chord.ID) bool { return !slices.Contains(ids, k) })
		for cycle := 0; cycle < 20; cycle++ {
			snapshot()
			_, done, err := s.AddIndexNodeWithID("idx-cycle", keys[at], now)
			if err != nil {
				t.Fatalf("bits %d, %d nodes: cycle %d: join: %v", bits, size, cycle, err)
			}
			check("cycle join")
			snapshot()
			if now, err = s.RemoveIndexGraceful("idx-cycle", done); err != nil {
				t.Fatalf("bits %d, %d nodes: cycle %d: leave: %v", bits, size, cycle, err)
			}
			check("cycle leave")
			for _, p := range storage {
				if node, _ := s.Storage(p); len(node.arcs) != held[p] {
					t.Fatalf("bits %d, %d nodes: after cycle %d %s holds %d arcs, %d before", bits, size, cycle, p, len(node.arcs), held[p])
				}
			}
		}
		before = nil

		// The forced step: a crash, three stabilize rounds and a recovery
		// leave the ring routing around the recovered node, a provider
		// learns arcs that give that node's keys to its successor, and a
		// join elsewhere converges the ring, handing the keys back. The
		// join's bump must not carry those arcs over.
		p := storage[0]
		var triples []rdf.Triple
		var fresh []chord.ID
		for j := 0; j < 3; j++ {
			tr := rdf.Triple{S: ex(fmt.Sprintf("q%d", rng.Intn(9))), P: fp("knows"), O: ex(fmt.Sprintf("r%d", rng.Intn(9)))}
			triples = append(triples, tr)
			k := TripleKeys(tr, bits)
			fresh = append(fresh, k[:]...)
		}
		keys = append(keys, fresh...)
		node, _ := s.Storage(p)
		var victim simnet.Addr
		for _, key := range fresh {
			owner, _, _, err := s.ResolveKey(p, key, now)
			if err == nil && owner != node.AttachedTo() && len(liveIndex(s)) > 1 {
				victim = owner
				break
			}
		}
		if victim == "" {
			continue
		}
		s.FailNode(victim)
		check("forced crash of " + string(victim))
		for i := 0; i < 3; i++ {
			now = s.StabilizeRound(now)
			check("stabilize round after the forced crash")
		}
		s.RecoverNode(victim)
		check("forced recovery of " + string(victim))
		var err error
		if now, err = s.Publish(p, triples, now); err != nil {
			t.Logf("bits %d, %d nodes: publish after the forced recovery: %v", bits, size, err)
		}
		check("publish after the forced recovery")
		addr := simnet.Addr(fmt.Sprintf("idx-join-%d", joined))
		if _, now, err = s.AddIndexNode(addr, now); err != nil {
			t.Logf("bits %d, %d nodes: join of %s: %v", bits, size, addr, err)
		}
		check("join of " + string(addr) + " after the forced recovery")
	}
	if hits == 0 || wrapHits == 0 || wholeHits == 0 || movedHits == 0 {
		t.Fatalf("arcs answered %d keys, %d by a wrap-around arc, %d by a whole-circle arc and %d by an arc a graceful event split or re-owned; want each > 0",
			hits, wrapHits, wholeHits, movedHits)
	}
	t.Logf("%d arc answers checked, %d wrap-around, %d whole-circle, %d split or re-owned", hits, wrapHits, wholeHits, movedHits)
}

// liveIndex lists the addresses of the deployment's live index nodes in
// ring order.
func liveIndex(s *System) []simnet.Addr {
	var out []simnet.Addr
	for _, n := range s.IndexNodes() {
		if s.Net().Alive(n.Addr()) {
			out = append(out, n.Addr())
		}
	}
	return out
}

// batchTap wraps an index node's handler and records the targets of every
// find_successor_batch it receives and the keys of every put_batch. Greedy
// routing never brings a batch back to the node it entered the ring at, so
// on a provider's entry point it sees exactly the provider's own resolves.
type batchTap struct {
	node    *IndexNode
	batches [][]chord.ID
	puts    []chord.ID
}

func (b *batchTap) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch r := req.(type) {
	case chord.BatchFindReq:
		if method == chord.MethodFindSuccessorBatch {
			b.batches = append(b.batches, slices.Clone(r.Targets))
		}
	case *PutBatchReq:
		for _, e := range r.Entries {
			b.puts = append(b.puts, e.Key)
		}
	}
	return b.node.HandleCall(at, method, req)
}

// TestArcsSurviveOneMove checks which keys a provider resolves again after
// each kind of epoch bump. On an 8-node ring the provider P publishes 30
// triples, learning every owner's arc; after a membership event it
// retracts half of them, and the targets of its first find_successor_batch
// are compared with the keys of that edit the event moved. A graceful join
// of J splits the arc it lands in and a graceful leave of L merges L's arc
// into its successor's, so the edit resolves no key: its put_batch
// reaches J, or L's successor, with every key of the moved arc. When P
// does not hold the successor's arc — P never published a key there — a
// leave drops L's arc, and the edit resolves exactly L's keys. A crash,
// or a recovery followed by a join with no Converge in between (the join's
// Converge also hands the recovered node its keys back), moves every key.
// Each case ends with the coverage monitor clean, every arc P holds
// agreeing with System.ResolveKey, and the epoch.bump flight event naming
// what moved.
func TestArcsSurviveOneMove(t *testing.T) {
	triples := replicaTriples(30)
	edit := triples[:15]
	// resolve is what an edit after the event resolves again.
	const (
		none  = iota // nothing: the moved arc's keys ship to its new owner
		moved        // the keys of the moved arc
		every        // every key
	)
	cases := []struct {
		name string
		// recovery marks the case that publishes half the triples before
		// its events and half between them, on a ring routing around a
		// recovered node; the postings written then miss that node, which
		// Republish repairs (Sect. III-D) before the coverage check.
		recovery bool
		resolve  int
		// setup runs before P's publication.
		setup func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) simnet.VTime
		// event runs the membership events after P's publication, given
		// the edit's keys, and returns the arc the event moved, named by
		// its new owner (the zero arc when it moved every key), and the
		// last epoch.bump note.
		event func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime)
	}{
		{"graceful join", false, none, nil, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
			// J splits the arc holding most of the edit's keys at their
			// median.
			split := busiestArc(t, s, keys)
			var inside []chord.ID
			for _, k := range keys {
				if split.Contains(k) {
					inside = append(inside, k)
				}
			}
			slices.SortFunc(inside, func(a, b chord.ID) int { return cmp.Compare(a-split.Start, b-split.Start) })
			j, now, err := s.AddIndexNodeWithID("idx-join", inside[len(inside)/2], now)
			if err != nil {
				t.Fatal(err)
			}
			return chord.Arc{Start: split.Start, Owner: j.Chord.Ref()},
				"converge (join idx-join: " + wantRepair(s, j.ID()) + ") -> epoch " + fmt.Sprint(s.Epoch()), now
		}},
		{"graceful leave", false, none, nil, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
			return leaveBusiest(t, s, keys, now)
		}},
		{"graceful leave, successor's arc not held", false, moved, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) simnet.VTime {
			// A node one past the leaver takes an arc that holds none of
			// P's keys, so no resolve ever teaches P that arc.
			gap := busiestArc(t, s, keys).Owner.ID + 1
			for _, k := range distinctKeys(triples, s.Config().Bits) {
				if k == gap {
					t.Fatalf("key %v lies in the gap arc", k)
				}
			}
			_, now, err := s.AddIndexNodeWithID("idx-gap", gap, now)
			if err != nil {
				t.Fatal(err)
			}
			return now
		}, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
			return leaveBusiest(t, s, keys, now)
		}},
		{"crash", false, every, nil, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
			victim := busiestArc(t, s, keys).Owner.Addr
			s.FailNode(victim)
			return chord.Arc{}, "fail " + string(victim) + " (everything) -> epoch " + fmt.Sprint(s.Epoch()), now
		}},
		{"recovery then join", true, every, nil, func(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
			victim := busiestArc(t, s, keys).Owner.Addr
			s.FailNode(victim)
			for i := 0; i < 3; i++ {
				now = s.StabilizeRound(now)
			}
			s.RecoverNode(victim)
			// P relearns its arcs on the ring that still routes around the
			// recovered node.
			now, err := s.Publish("P", triples[15:], now)
			if err != nil {
				t.Fatal(err)
			}
			_, now, err = s.AddIndexNode("idx-join", now)
			if err != nil {
				t.Fatal(err)
			}
			return chord.Arc{}, "converge (join idx-join: everything) -> epoch " + fmt.Sprint(s.Epoch()), now
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, now := newTestSystem(t, 8)
			mon := Arm(s, 1<<10)
			if _, done, err := s.AddStorageNode("P", now); err != nil {
				t.Fatal(err)
			} else {
				now = done
			}
			keys := distinctKeys(edit, s.Config().Bits)
			if tc.setup != nil {
				now = tc.setup(t, s, keys, now)
			}
			published := triples
			if tc.recovery {
				published = triples[:15]
			}
			now, err := s.Publish("P", published, now)
			if err != nil {
				t.Fatal(err)
			}
			arc, note, now := tc.event(t, s, keys, now)
			bumps := mon.Recorder().LastN("system", 1)
			if len(bumps) != 1 || bumps[0].Kind != flight.KindEpochBump || bumps[0].Note != note {
				t.Errorf("last system event %v, want an %s noted %q", bumps, flight.KindEpochBump, note)
			}

			var inArc, want []chord.ID
			for _, k := range keys {
				if arc.Owner.IsZero() || arc.Contains(k) {
					inArc = append(inArc, k)
				}
			}
			slices.Sort(inArc)
			if tc.resolve != none {
				want = inArc
			}
			if len(inArc) == 0 || len(inArc) == len(keys) && !arc.Owner.IsZero() {
				t.Errorf("the moved arc holds %d of the edit's keys; the case must tell one arc from all", len(inArc))
			}
			p, _ := s.Storage("P")
			taps := map[simnet.Addr]*batchTap{}
			for _, a := range []simnet.Addr{p.AttachedTo(), arc.Owner.Addr} {
				if idx, ok := s.Index(a); ok && taps[a] == nil {
					taps[a] = &batchTap{node: idx}
					s.Net().Register(a, taps[a])
				}
			}
			if now, err = s.Retract("P", edit, now); err != nil {
				t.Fatal(err)
			}
			for a, tap := range taps {
				s.Net().Register(a, simnet.HandlerFunc(tap.node.HandleCall))
			}
			var got []chord.ID
			if entry := taps[p.AttachedTo()]; len(entry.batches) > 0 {
				got = entry.batches[0]
			}
			if !slices.Equal(got, want) {
				t.Errorf("edit resolved %d keys %v, want the %d keys %v", len(got), got, len(want), want)
			}
			if tc.resolve == none {
				if len(taps[arc.Owner.Addr].puts) == 0 {
					t.Fatalf("no put_batch reached the moved arc's new owner %s", arc.Owner.Addr)
				}
				for _, k := range inArc {
					if !slices.Contains(taps[arc.Owner.Addr].puts, k) {
						t.Errorf("key %v of the moved arc did not ship to its new owner %s", k, arc.Owner.Addr)
					}
				}
			}
			t.Logf("the edit resolved %d of its %d keys; the moved arc holds %d", len(got), len(keys), len(inArc))
			for _, d := range arcDisagreements(s, "P", distinctKeys(triples, s.Config().Bits), now) {
				t.Error(d)
			}
			if tc.recovery {
				if now, err = s.Republish("P", now); err != nil {
					t.Fatal(err)
				}
			}
			if vs := mon.CheckCoverage(); len(vs) != 0 {
				t.Errorf("coverage: %v", vs)
			}
		})
	}
}

// leaveBusiest has the owner of busiestArc leave gracefully and returns its
// arc, named by the successor that takes it, and the epoch.bump note.
func leaveBusiest(t *testing.T, s *System, keys []chord.ID, now simnet.VTime) (chord.Arc, string, simnet.VTime) {
	t.Helper()
	gone := busiestArc(t, s, keys)
	idx, _ := s.Index(gone.Owner.Addr)
	succ := idx.Chord.Successor()
	now, err := s.RemoveIndexGraceful(gone.Owner.Addr, now)
	if err != nil {
		t.Fatal(err)
	}
	return chord.Arc{Start: gone.Start, Owner: succ},
		"converge (leave " + string(gone.Owner.Addr) + ": " + wantRepair(s, gone.Owner.ID) + ") -> epoch " + fmt.Sprint(s.Epoch()), now
}

// busiestArc is the ring arc, (predecessor, node], that holds the most of
// keys, skipping the arc of provider P's attachment point.
func busiestArc(t *testing.T, s *System, keys []chord.ID) chord.Arc {
	t.Helper()
	p, _ := s.Storage("P")
	live := s.IndexNodes()
	var best chord.Arc
	most := 0
	for i, n := range live {
		arc := chord.Arc{Start: live[(i+len(live)-1)%len(live)].ID(), Owner: n.Chord.Ref()}
		count := 0
		for _, k := range keys {
			if arc.Contains(k) {
				count++
			}
		}
		if count > most && n.Addr() != p.AttachedTo() {
			best, most = arc, count
		}
	}
	if most < 2 {
		t.Fatalf("no arc holds two of %d keys", len(keys))
	}
	return best
}

// arcDisagreements lists every probe key that provider p's arcs answer in
// the current epoch, with a live owner, for another node than the one
// System.ResolveKey finds from p. The probes are keys plus both ends of
// every arc.
func arcDisagreements(s *System, p simnet.Addr, keys []chord.ID, now simnet.VTime) []string {
	node, _ := s.Storage(p)
	probes := slices.Clone(keys)
	for _, a := range node.arcs {
		probes = append(probes, a.Start, a.Start+1, a.Owner.ID)
	}
	var out []string
	for _, key := range probes {
		arc, ok := node.ownerArc(s.Epoch(), key)
		if !ok || !s.Net().Alive(arc.Owner.Addr) {
			continue
		}
		if want, _, _, err := s.ResolveKey(p, key, now); err == nil && want != arc.Owner.Addr {
			out = append(out, fmt.Sprintf("%s's arc (%v, %v] gives %v to %s, the ring to %s", p, arc.Start, arc.Owner.ID, key, arc.Owner.Addr, want))
		}
	}
	return out
}

// TestArcsConcurrentWithMembership runs a graceful join and leave while
// four providers publish from their own goroutines. Run under -race: a
// bump re-stamps each provider's arcs under that provider's lock, taken
// after the system's is released. An edit may fail when its owner leaves
// under it; afterwards every provider republishes, and the coverage
// monitor and every provider's arcs must agree with the ring.
func TestArcsConcurrentWithMembership(t *testing.T) {
	s, now := newTestSystem(t, 6)
	providers := []simnet.Addr{"C0", "C1", "C2", "C3"}
	batch := func(p simnet.Addr, j int) []rdf.Triple {
		return []rdf.Triple{
			{S: ex(fmt.Sprintf("%s-s%d", p, j)), P: fp("knows"), O: ex("hub")},
			{S: ex(fmt.Sprintf("%s-s%d", p, j)), P: fp("name"), O: rdf.NewLiteral(fmt.Sprintf("n%d", j))},
		}
	}
	for _, p := range providers {
		_, done, err := s.AddStorageNode(p, now)
		if err != nil {
			t.Fatal(err)
		}
		if now, err = s.Publish(p, batch(p, 0), done); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, p := range providers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= 5; j++ {
				// A shipment to an owner that leaves under it fails the
				// edit, which un-adds its triples; Republish below covers
				// whatever the graph holds.
				if _, err := s.Publish(p, batch(p, j), now); err != nil {
					t.Logf("%s: %v", p, err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, done, err := s.AddIndexNode("idx-join", now)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.RemoveIndexGraceful("idx-join", done); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	mon := Arm(s, 1<<10)
	for _, p := range providers {
		var err error
		if now, err = s.Republish(p, now); err != nil {
			t.Fatal(err)
		}
	}
	if vs := mon.CheckCoverage(); len(vs) != 0 {
		t.Errorf("coverage: %v", vs)
	}
	for _, p := range providers {
		node, _ := s.Storage(p)
		for _, d := range arcDisagreements(s, p, distinctKeys(node.Graph.Triples(), s.Config().Bits), now) {
			t.Error(d)
		}
	}
}

// TestMaintenanceThatMovesNothingKeepsArcs holds the rule that a Converge or
// StabilizeRound keeps every owner arc only if it moved no live member's
// predecessor or successor. On a converged ring each round keeps all of
// D1's arcs into the new epoch, and D1's next edit sends no
// find_successor_batch. A Converge after FailNode, and after the node's
// RecoverNode, moves keys: the arcs drop, the next edit resolves, and every
// arc learned since answers as the ring does. So does a Converge after a
// recovery's first StabilizeRound, which moves only a successor, and a
// StabilizeRound during a crash window, which evicts the crashed member.
func TestMaintenanceThatMovesNothingKeepsArcs(t *testing.T) {
	triples := replicaTriples(30)
	s, now := chainSystem(t, 6, 2)
	node, _ := s.Storage("D1")
	held := func() int {
		node.mu.Lock()
		defer node.mu.Unlock()
		if node.arcEpoch != s.Epoch() {
			return 0
		}
		return len(node.arcs)
	}
	// edit applies one edit of D1's and returns its find_successor_batch
	// messages.
	edit := func(label string, apply func() (simnet.VTime, error)) int64 {
		t.Helper()
		before := s.Net().Metrics()
		done, err := apply()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		now = done
		return s.Net().Metrics().Sub(before).PerMethod[chord.MethodFindSuccessorBatch].Messages
	}
	publish := func(tr []rdf.Triple) func() (simnet.VTime, error) {
		return func() (simnet.VTime, error) { return s.Publish("D1", tr, now) }
	}
	retract := func(tr []rdf.Triple) func() (simnet.VTime, error) {
		return func() (simnet.VTime, error) { return s.Retract("D1", tr, now) }
	}
	// agree checks every key D1 published against the arc it holds for it.
	agree := func(label string) {
		t.Helper()
		for _, k := range distinctKeys(triples, s.Config().Bits) {
			arc, ok := node.ownerArc(s.Epoch(), k)
			if !ok {
				continue
			}
			owner, _, _, err := s.ResolveKey("D1", k, now)
			if err == nil && owner != arc.Owner.Addr {
				t.Errorf("%s: D1's arc (%v, %v] gives %v to %s, the ring to %s", label, arc.Start, arc.Owner.ID, k, arc.Owner.Addr, owner)
			}
		}
	}
	// victim is an index node other than D1's entry point.
	victim := func(skip int) simnet.Addr {
		for _, n := range s.IndexNodes() {
			if n.Addr() != node.AttachedTo() && s.Net().Alive(n.Addr()) {
				if skip == 0 {
					return n.Addr()
				}
				skip--
			}
		}
		t.Fatal("no index node to crash")
		return ""
	}

	if edit("first publication", publish(triples[:8])) == 0 {
		t.Fatal("the first publication resolved nothing")
	}
	learned := held()
	for _, round := range []struct {
		name string
		run  func(simnet.VTime) simnet.VTime
	}{{"Converge", s.Converge}, {"StabilizeRound", s.StabilizeRound}} {
		epoch := s.Epoch()
		now = round.run(now)
		if s.Epoch() == epoch {
			t.Fatalf("%s left the epoch at %d", round.name, epoch)
		}
		if got := held(); got != learned {
			t.Errorf("%s on a converged ring: D1 holds %d arcs in the new epoch, want all %d", round.name, got, learned)
		}
		if n := edit("edit after "+round.name, retract(triples[:2])); n != 0 {
			t.Errorf("edit after %s on a converged ring: %d find_successor_batch messages, want 0", round.name, n)
		}
		edit("re-publication", publish(triples[:2]))
	}

	// moved checks a round that moved keys: no arc survives it, and the
	// next edit resolves.
	moved := func(label string, tr []rdf.Triple) {
		t.Helper()
		if got := held(); got != 0 {
			t.Errorf("%s: D1 holds %d arcs in the new epoch, want none", label, got)
		}
		agree(label)
		if n := edit("edit after "+label, publish(tr)); n == 0 {
			t.Errorf("edit after %s resolved nothing", label)
		}
		agree("edit after " + label)
	}
	// learn has D1 hold arcs of the current epoch before a round that moves
	// keys. The first edit after a crash may find the dead owner and fall
	// back, which drops every arc; the next one learns them.
	learn := func(label string, tr []rdf.Triple) {
		t.Helper()
		for i := 0; i < len(tr) && held() == 0; i += 2 {
			edit(label, publish(tr[i:i+2]))
		}
		if held() == 0 {
			t.Fatalf("%s: D1 learned no arcs", label)
		}
	}
	crashed := victim(0)
	s.FailNode(crashed)
	learn("edits around the crash", triples[8:12])
	now = s.Converge(now)
	moved("Converge after FailNode", triples[12:14])
	s.RecoverNode(crashed)
	learn("edits before the recovery converges", triples[14:18])
	now = s.Converge(now)
	moved("Converge after RecoverNode", triples[18:20])

	// A recovered node whose predecessor stabilizes before it in a round
	// is back halfway after that round: its successor names it as
	// predecessor, its predecessor still names that successor, and the
	// arcs D1 learns then give its keys to the successor. The Converge
	// after moves only the predecessor's successor.
	var late simnet.Addr
	nodes := s.IndexNodes()
	for i, n := range nodes {
		pred := nodes[(i+len(nodes)-1)%len(nodes)]
		if n.Addr() != node.AttachedTo() && pred.Addr() < n.Addr() {
			late = n.Addr()
			break
		}
	}
	if late == "" {
		t.Fatal("no index node stabilizes after its predecessor")
	}
	s.FailNode(late)
	now = s.Converge(now)
	s.RecoverNode(late)
	now = s.StabilizeRound(now)
	learn("edits after the recovery's first round", triples[24:28])
	now = s.Converge(now)
	moved("Converge after a recovery's first round", triples[28:30])

	windowed := victim(1)
	s.Net().SetFaults(&simnet.FaultPlan{Crashes: []simnet.CrashWindow{{Node: windowed, From: now}}})
	learn("edit before the round", triples[20:22])
	now = s.StabilizeRound(now)
	moved("StabilizeRound evicting "+string(windowed), triples[22:24])
}
