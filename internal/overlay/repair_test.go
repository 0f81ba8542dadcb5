package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// succListSize is the successor-list length r of every index node.
const succListSize = 4

// idealDiffs lists every pointer of a live index node that differs from
// the ideal ring over the live nodes: the predecessor is the previous live
// node (on a ring of one, unset or the node itself), the successor list
// the next min(r, live−1) live nodes (on a ring of one, the node itself)
// and finger k the live successor of ID + 2^k.
func idealDiffs(s *System) []string {
	var live []*IndexNode
	for _, n := range s.IndexNodes() {
		if s.Net().Alive(n.Addr()) {
			live = append(live, n)
		}
	}
	bits := s.Config().Bits
	mask := chord.ID(1)<<bits - 1
	if bits == 64 {
		mask = ^chord.ID(0)
	}
	successor := func(key chord.ID) simnet.Addr {
		for _, n := range live {
			if n.ID() >= key {
				return n.Addr()
			}
		}
		return live[0].Addr()
	}
	var out []string
	for i, n := range live {
		pred := n.Chord.Predecessor().Addr
		wantPred := live[(i+len(live)-1)%len(live)].Addr()
		if pred != wantPred && !(len(live) == 1 && pred == "") {
			out = append(out, fmt.Sprintf("%s: pred %q, want %s", n.Addr(), pred, wantPred))
		}
		var wantList []simnet.Addr
		for j := 1; j <= min(succListSize, len(live)-1); j++ {
			wantList = append(wantList, live[(i+j)%len(live)].Addr())
		}
		if len(live) == 1 {
			wantList = []simnet.Addr{n.Addr()}
		}
		var list []simnet.Addr
		for _, r := range n.Chord.SuccessorList() {
			list = append(list, r.Addr)
		}
		if !slices.Equal(list, wantList) {
			out = append(out, fmt.Sprintf("%s: successor list %v, want %v", n.Addr(), list, wantList))
		}
		for k, f := range n.Chord.Fingers() {
			if want := successor((n.ID() + chord.ID(1)<<k) & mask); f.Addr != want {
				out = append(out, fmt.Sprintf("%s: finger %d %q, want %s", n.Addr(), k, f.Addr, want))
			}
		}
	}
	return out
}

// pointers renders every live index node's predecessor, successor list and
// fingers, for comparing two deployments pointer by pointer.
func pointers(s *System) string {
	var b strings.Builder
	for _, n := range s.IndexNodes() {
		if s.Net().Alive(n.Addr()) {
			fmt.Fprintf(&b, "%s pred=%v succ=%v fingers=%v\n", n.Addr(), n.Chord.Predecessor(), n.Chord.SuccessorList(), n.Chord.Fingers())
		}
	}
	return b.String()
}

// wantRepair is the size of the repair of a graceful join or leave of the
// node with ID mover, read off the ring after the event: the lists of the
// min(r, others) nodes before the mover's position, and every finger of a
// live node whose start lies in the arc the event moved — (P, mover], P
// the live node before the mover's position.
func wantRepair(s *System, mover chord.ID) string {
	var ids, others []chord.ID
	for _, n := range s.IndexNodes() {
		if s.Net().Alive(n.Addr()) {
			ids = append(ids, n.ID())
			if n.ID() != mover {
				others = append(others, n.ID())
			}
		}
	}
	bits := s.Config().Bits
	p := others[len(others)-1]
	for _, id := range others {
		if id < mover {
			p = id
		}
	}
	moved := chord.Arc{Start: p, Owner: chord.Ref{ID: mover}}
	fingers := 0
	for _, id := range ids {
		for k := uint(0); k < bits; k++ {
			if moved.Contains((id + chord.ID(1)<<k) & (chord.ID(1)<<bits - 1)) {
				fingers++
			}
		}
	}
	return fmt.Sprintf("1 arc, %d lists, %d fingers", min(succListSize, len(others)), fingers)
}

// lastBump is the note of the deployment's last epoch.bump flight event.
func lastBump(t *testing.T, mon *Monitors) string {
	t.Helper()
	ev := mon.Recorder().LastN("system", 1)
	if len(ev) != 1 || ev[0].Kind != flight.KindEpochBump {
		t.Fatalf("last system event %v, want an %s", ev, flight.KindEpochBump)
	}
	return ev[0].Note
}

// dropMethod wraps an index node's handler and loses every request of one
// method in transit; the handler never runs.
type dropMethod struct {
	node   *IndexNode
	method string
}

func (d dropMethod) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if method == d.method {
		return nil, at, simnet.ErrMessageLost
	}
	return d.node.HandleCall(at, method, req)
}

// repairPair is a deployment and its twin: the same index nodes, storage
// nodes and edits, but the twin converges fully on every membership event.
type repairPair struct {
	t         *testing.T
	rng       *rand.Rand
	s, twin   *System
	now, tnow simnet.VTime
	mon       *Monitors
	joined    int
}

// newRepairPair builds both deployments on the index IDs ids (bits wide),
// converges them and attaches two publishing storage nodes.
func newRepairPair(t *testing.T, rng *rand.Rand, bits uint, ids []chord.ID) *repairPair {
	t.Helper()
	rp := &repairPair{t: t, rng: rng}
	build := func() (*System, simnet.VTime) {
		s := NewSystem(Config{Bits: bits, Replication: 2,
			Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
		now := simnet.VTime(0)
		for i, id := range ids {
			_, done, err := s.AddIndexNodeWithID(simnet.Addr(fmt.Sprintf("idx-%03d", i)), id, now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		now = s.Converge(now)
		for _, p := range []simnet.Addr{"st-0", "st-1"} {
			_, done, err := s.AddStorageNode(p, now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		return s, now
	}
	rp.s, rp.now = build()
	rp.twin, rp.tnow = build()
	rp.mon = Arm(rp.s, 1<<10)
	rp.edit(false)
	return rp
}

// edit publishes a few random triples, or retracts some, at a random
// storage node of both deployments.
func (rp *repairPair) edit(retract bool) {
	rp.t.Helper()
	p := simnet.Addr(fmt.Sprintf("st-%d", rp.rng.Intn(2)))
	var triples []rdf.Triple
	if retract {
		node, _ := rp.s.Storage(p)
		triples = node.Graph.Triples()[:min(2, node.Graph.Size())]
	} else {
		for j := 0; j < 1+rp.rng.Intn(4); j++ {
			triples = append(triples, rdf.Triple{S: ex(fmt.Sprintf("p%d", rp.rng.Intn(9))),
				P: fp([]string{"knows", "name", "mbox", "likes"}[rp.rng.Intn(4)]), O: ex(fmt.Sprintf("o%d", rp.rng.Intn(9)))})
		}
	}
	for _, side := range []struct {
		s   *System
		now *simnet.VTime
	}{{rp.s, &rp.now}, {rp.twin, &rp.tnow}} {
		var err error
		if retract {
			*side.now, err = side.s.Retract(p, triples, *side.now)
		} else {
			*side.now, err = side.s.Publish(p, triples, *side.now)
		}
		if err != nil {
			rp.t.Fatal(err)
		}
	}
}

// join adds an index node with the given ID to both deployments (the
// twin converging fully) and returns the deployment's epoch.bump note.
func (rp *repairPair) join(id chord.ID) (simnet.Addr, string) {
	rp.t.Helper()
	addr := simnet.Addr(fmt.Sprintf("idx-join-%d", rp.joined))
	rp.joined++
	var err error
	if _, rp.now, err = rp.s.AddIndexNodeWithID(addr, id, rp.now); err != nil {
		rp.t.Fatalf("join of %s: %v", addr, err)
	}
	rp.twin.setConverged(false)
	if _, rp.tnow, err = rp.twin.AddIndexNodeWithID(addr, id, rp.tnow); err != nil {
		rp.t.Fatalf("twin join of %s: %v", addr, err)
	}
	return addr, lastBump(rp.t, rp.mon)
}

// leave removes an index node from both deployments gracefully (the twin
// converging fully) and returns the deployment's epoch.bump note.
func (rp *repairPair) leave(addr simnet.Addr) string {
	rp.t.Helper()
	var err error
	if rp.now, err = rp.s.RemoveIndexGraceful(addr, rp.now); err != nil {
		rp.t.Fatalf("leave of %s: %v", addr, err)
	}
	rp.twin.setConverged(false)
	if rp.tnow, err = rp.twin.RemoveIndexGraceful(addr, rp.tnow); err != nil {
		rp.t.Fatalf("twin leave of %s: %v", addr, err)
	}
	return lastBump(rp.t, rp.mon)
}

// check holds the deployment to the ideal ring and to its twin after step,
// with the ring and coverage monitors and every provider's arcs clean.
func (rp *repairPair) check(step string) {
	rp.t.Helper()
	for _, d := range idealDiffs(rp.s) {
		rp.t.Errorf("after %s: %s", step, d)
	}
	if got, want := pointers(rp.s), pointers(rp.twin); got != want {
		rp.t.Errorf("after %s: pointers differ from the fully converged twin:\n%s\ntwin:\n%s", step, got, want)
	}
	if vs := append(rp.mon.CheckRing(), rp.mon.CheckCoverage()...); len(vs) != 0 {
		rp.t.Errorf("after %s: %v", step, vs)
	}
	for _, p := range []simnet.Addr{"st-0", "st-1"} {
		node, _ := rp.s.Storage(p)
		for _, d := range arcDisagreements(rp.s, p, distinctKeys(node.Graph.Triples(), rp.s.Config().Bits), rp.now) {
			rp.t.Errorf("after %s: %s", step, d)
		}
	}
	if rp.t.Failed() {
		rp.t.FailNow()
	}
}

// live returns the IDs and addresses of the deployment's index nodes in
// ring order.
func (rp *repairPair) live() ([]chord.ID, []simnet.Addr) {
	var ids []chord.ID
	var addrs []simnet.Addr
	for _, n := range rp.s.IndexNodes() {
		ids = append(ids, n.ID())
		addrs = append(addrs, n.Addr())
	}
	return ids, addrs
}

// freeID draws an identifier no index node holds: below every one, above
// every one, or anywhere, with equal odds.
func (rp *repairPair) freeID() chord.ID {
	ids, _ := rp.live()
	size := chord.ID(1) << rp.s.Config().Bits
	for {
		var id chord.ID
		switch rp.rng.Intn(3) {
		case 0:
			id = chord.ID(rp.rng.Int63n(int64(ids[0]) + 1))
		case 1:
			id = ids[len(ids)-1] + chord.ID(rp.rng.Int63n(int64(size-ids[len(ids)-1])))
		default:
			id = chord.ID(rp.rng.Int63n(int64(size)))
		}
		if !slices.Contains(ids, id) {
			return id
		}
	}
}

// TestGracefulMembershipRepairsIdealRing holds the repair of a graceful
// join or leave on a converged ring to the full convergence it replaces.
// On the paper's Fig. 1 ring, rings of one to r+1 nodes and random rings
// (Bits 4–24, 1–64 index nodes) it runs sequences of graceful joins and
// leaves — movers with the smallest and largest IDs, whose arcs wrap,
// and back-to-back events — interleaved with publish and retract. After
// every step each live node's predecessor, successor list and fingers are
// those of the ideal ring and equal to those of a twin deployment that
// converged fully on every event; the ring and coverage monitors and the
// providers' arcs are clean; and each event's epoch.bump note names the
// repair's size, read off the ring.
func TestGracefulMembershipRepairsIdealRing(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	type trial struct {
		name string
		bits uint
		ids  []chord.ID
		// script names fixed events before the random ones: a join
		// ("+id") or a leave ("-id") of the node with that ID.
		script []string
		steps  int
	}
	trials := []trial{
		{name: "fig1", bits: 4, ids: []chord.ID{1, 4, 7, 12, 15},
			script: []string{"+0", "-15", "+13", "-0", "-1", "+2", "+14"}, steps: 6},
		{name: "1-2-1", bits: 8, ids: []chord.ID{200}, script: []string{"+17", "-200", "+250", "-250"}},
		{name: "smallest and largest", bits: 16, ids: []chord.ID{1000, 20000, 40000},
			script: []string{"+0", "+65535", "-0", "-65535", "-1000", "-40000", "+65535"}, steps: 6},
	}
	for size := 2; size <= succListSize+1; size++ {
		trials = append(trials, trial{name: fmt.Sprintf("%d nodes", size), bits: 6, steps: 10,
			ids: randomIDs(rng, 6, size)})
	}
	for i := 0; i < 10; i++ {
		bits := uint(4 + rng.Intn(21))
		size := 1 + rng.Intn(64)
		if i == 0 {
			bits, size = 24, 64
		}
		size = min(size, 1<<bits-6)
		trials = append(trials, trial{name: fmt.Sprintf("random %d bits %d nodes", bits, size), bits: bits, steps: 12,
			ids: randomIDs(rng, bits, size)})
	}
	events := 0
	for _, tr := range trials {
		t.Run(tr.name, func(t *testing.T) {
			rp := newRepairPair(t, rng, tr.bits, tr.ids)
			rp.check("set-up")
			event := func(join bool, id chord.ID) {
				t.Helper()
				events++
				if join {
					addr, note := rp.join(id)
					want := "converge (join " + string(addr) + ": " + wantRepair(rp.s, id) + ") -> epoch " + fmt.Sprint(rp.s.Epoch())
					if note != want {
						t.Errorf("join of %v: bump noted %q, want %q", id, note, want)
					}
					rp.check(fmt.Sprintf("join of %v", id))
					return
				}
				ids, addrs := rp.live()
				addr := addrs[slices.Index(ids, id)]
				note := rp.leave(addr)
				want := "converge (leave " + string(addr) + ": " + wantRepair(rp.s, id) + ") -> epoch " + fmt.Sprint(rp.s.Epoch())
				if note != want {
					t.Errorf("leave of %v: bump noted %q, want %q", id, note, want)
				}
				rp.check(fmt.Sprintf("leave of %v", id))
			}
			for _, step := range tr.script {
				var id chord.ID
				fmt.Sscan(step[1:], &id)
				event(step[0] == '+', id)
			}
			for i := 0; i < tr.steps; i++ {
				ids, _ := rp.live()
				switch op := rng.Intn(4); {
				case op == 0:
					rp.edit(false)
					rp.check("publish")
				case op == 1:
					rp.edit(true)
					rp.check("retract")
				case op == 2 && len(ids) > 1:
					id := ids[rng.Intn(len(ids))]
					switch rng.Intn(3) {
					case 0:
						id = ids[0]
					case 1:
						id = ids[len(ids)-1]
					}
					event(false, id)
				default:
					event(true, rp.freeID())
				}
			}
		})
	}
	t.Logf("%d graceful events repaired", events)
}

// randomIDs draws size distinct identifiers on a bits-wide circle.
func randomIDs(rng *rand.Rand, bits uint, size int) []chord.ID {
	var ids []chord.ID
	for len(ids) < size {
		id := chord.ID(rng.Int63n(1 << bits))
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestLostHandoverKeepsLeaverServing loses a graceful leave's handover at
// the leaver's successor, at replication 1, where the leaver's rows live
// nowhere else. The leave must fail with the loss and change nothing: the
// leaver stays in the deployment and on the ring with its rows, so every
// posting is still where the coverage monitor looks for it. A second
// leave, with the loss gone, hands every row over.
func TestLostHandoverKeepsLeaverServing(t *testing.T) {
	s, now := chainSystem(t, 5, 1)
	now, err := s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	mon := Arm(s, 1<<10)
	var leaver *IndexNode
	for _, n := range s.IndexNodes() {
		if leaver == nil || n.Table.Postings() > leaver.Table.Postings() {
			leaver = n
		}
	}
	rows := leaver.Table.Postings()
	succ, _ := s.Index(leaver.Chord.Successor().Addr)
	s.Net().Register(succ.Addr(), dropMethod{node: succ, method: MethodHandover})
	now, err = s.RemoveIndexGraceful(leaver.Addr(), now)
	s.Net().Register(succ.Addr(), simnet.HandlerFunc(succ.HandleCall))
	if !errors.Is(err, simnet.ErrMessageLost) {
		t.Fatalf("leave with its handover lost: error %v, want a lost message", err)
	}
	if n, ok := s.Index(leaver.Addr()); !ok || n != leaver {
		t.Error("the leaver is no longer in the deployment")
	}
	if !s.Net().Alive(leaver.Addr()) {
		t.Error("the leaver is no longer registered on the fabric")
	}
	if got := leaver.Table.Postings(); got != rows {
		t.Errorf("the leaver holds %d postings, want its %d", got, rows)
	}
	if vs := append(mon.CheckRing(), mon.CheckCoverage()...); len(vs) != 0 {
		t.Errorf("after the lost handover: %v", vs)
	}
	if now, err = s.RemoveIndexGraceful(leaver.Addr(), now); err != nil {
		t.Fatalf("leave after the loss: %v", err)
	}
	if _, ok := s.Index(leaver.Addr()); ok {
		t.Error("the leaver is still in the deployment after its leave")
	}
	if vs := append(mon.CheckRing(), mon.CheckCoverage()...); len(vs) != 0 {
		t.Errorf("after the leave: %v", vs)
	}
}

// TestFailedRepairConvergesFullyNext checks the ways a graceful event can
// leave the ring unconverged: a join whose ring join or table transfer is
// lost — the joiner is evicted again, out of the deployment and off the
// fabric — and a repair whose finger update is lost. Each event's
// epoch.bump drops every arc, the ring counts as unconverged, and the next
// graceful event converges fully — its note says everything — to the
// ideal ring, with the ring and coverage monitors clean.
func TestFailedRepairConvergesFullyNext(t *testing.T) {
	cases := []struct {
		name   string
		method string
		// ok reports whether the event itself succeeds.
		ok bool
	}{
		{"ring join lost", chord.MethodFindSuccessor, false},
		{"transfer lost", MethodTransfer, false},
		{"finger update lost", chord.MethodUpdateFinger, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			rp := newRepairPair(t, rng, 16, randomIDs(rng, 16, 8))
			rp.edit(false)
			ids, addrs := rp.live()
			// The joiner lands between ids[2] and ids[3]: ids[3] serves its
			// table transfer, and ids[2], its predecessor, takes a finger
			// update (its first finger starts in the joiner's arc). The
			// ring join asks the lowest address, idx-000.
			j := ids[2] + (ids[3]-ids[2])/2
			s := addrs[3]
			switch tc.method {
			case chord.MethodUpdateFinger:
				s = addrs[2]
			case chord.MethodFindSuccessor:
				s = "idx-000"
			}
			node, _ := rp.s.Index(s)
			rp.s.Net().Register(s, dropMethod{node: node, method: tc.method})
			_, now, err := rp.s.AddIndexNodeWithID("idx-lossy", j, rp.now)
			rp.now = now
			rp.s.Net().Register(s, simnet.HandlerFunc(node.HandleCall))
			if (err == nil) != tc.ok {
				t.Fatalf("join with %s lost: error %v", tc.method, err)
			}
			if _, ok := rp.s.Index("idx-lossy"); ok != tc.ok || rp.s.Net().Alive("idx-lossy") != tc.ok {
				t.Fatalf("after the join with %s lost, the joiner is in the deployment: %v, registered: %v", tc.method, ok, rp.s.Net().Alive("idx-lossy"))
			}
			if rp.s.converged {
				t.Fatal("the ring counts as converged after a failed repair")
			}
			if tc.ok {
				// Only a finger is stale: the ring and the tables are sound.
				if note := lastBump(t, rp.mon); !strings.HasSuffix(note, ": everything) -> epoch "+fmt.Sprint(rp.s.Epoch())) {
					t.Errorf("bump noted %q, want everything moved", note)
				}
				if vs := append(rp.mon.CheckRing(), rp.mon.CheckCoverage()...); len(vs) != 0 {
					t.Error(vs)
				}
			}
			id := rp.freeID()
			_, rp.now, err = rp.s.AddIndexNodeWithID("idx-next", id, rp.now)
			if err != nil {
				t.Fatal(err)
			}
			want := "converge (join idx-next: everything) -> epoch " + fmt.Sprint(rp.s.Epoch())
			if note := lastBump(t, rp.mon); note != want {
				t.Errorf("next join noted %q, want %q", note, want)
			}
			for _, d := range idealDiffs(rp.s) {
				t.Error(d)
			}
			if vs := append(rp.mon.CheckRing(), rp.mon.CheckCoverage()...); len(vs) != 0 {
				t.Error(vs)
			}
		})
	}
}
