package chord

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"adhocshare/internal/simnet"
)

func testNet() *simnet.Network {
	return simnet.New(simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20})
}

// fig1Refs reproduces the paper's Fig. 1 index nodes: N1, N4, N7, N12, N15
// in a 4-bit identifier space.
func fig1Refs() []Ref {
	var out []Ref
	for _, id := range []ID{1, 4, 7, 12, 15} {
		out = append(out, Ref{ID: id, Addr: simnet.Addr(fmt.Sprintf("index-%d", id))})
	}
	return out
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		open    bool
		incl    bool
	}{
		{5, 1, 10, true, true},
		{1, 1, 10, false, false},
		{10, 1, 10, false, true},
		{0, 12, 4, true, true},  // wraparound
		{15, 12, 4, true, true}, // wraparound
		{4, 12, 4, false, true},
		{12, 12, 4, false, false},
		{8, 12, 4, false, false},
		{3, 7, 7, true, true}, // full circle when a == b
		{7, 7, 7, false, true},
	}
	for _, c := range cases {
		if got := between(c.x, c.a, c.b); got != c.open {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.open)
		}
		if got := betweenRightIncl(c.x, c.a, c.b); got != c.incl {
			t.Errorf("betweenRightIncl(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.incl)
		}
	}
}

func TestHashIDStableAndTruncated(t *testing.T) {
	a := HashID("node-1", 32)
	b := HashID("node-1", 32)
	if a != b {
		t.Error("HashID not deterministic")
	}
	if HashID("node-1", 4) > 15 {
		t.Error("4-bit ID exceeds circle")
	}
	f := func(s string) bool { return HashID(s, 16) < (1 << 16) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFig1RingFormation(t *testing.T) {
	net := testNet()
	nodes, _, err := BuildRing(net, fig1Refs(), Config{Bits: 4, SuccListSize: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSucc := map[ID]ID{1: 4, 4: 7, 7: 12, 12: 15, 15: 1}
	for _, n := range nodes {
		if got := n.Successor().ID; got != wantSucc[n.ID()] {
			t.Errorf("successor(%v) = %v, want N%d", n.ID(), got, wantSucc[n.ID()])
		}
	}
	wantPred := map[ID]ID{4: 1, 7: 4, 12: 7, 15: 12, 1: 15}
	for _, n := range nodes {
		if got := n.Predecessor().ID; got != wantPred[n.ID()] {
			t.Errorf("predecessor(%v) = %v, want N%d", n.ID(), got, wantPred[n.ID()])
		}
	}
}

func TestFig1LookupSemantics(t *testing.T) {
	net := testNet()
	nodes, now, err := BuildRing(net, fig1Refs(), Config{Bits: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// successor-of-key semantics in the 4-bit space
	want := map[ID]ID{0: 1, 1: 1, 2: 4, 4: 4, 5: 7, 7: 7, 8: 12, 11: 12, 12: 12, 13: 15, 15: 15}
	for key, wantID := range want {
		for _, start := range nodes {
			got, _, done, err := start.Lookup(key, now)
			now = done
			if err != nil {
				t.Fatalf("lookup %d from %v: %v", key, start.ID(), err)
			}
			if got.ID != wantID {
				t.Errorf("lookup(%d) from %v = %v, want N%d", key, start.ID(), got.ID, wantID)
			}
		}
	}
}

func buildN(t *testing.T, net *simnet.Network, n int, bits uint) []*Node {
	t.Helper()
	refs := make([]Ref, 0, n)
	seen := map[ID]bool{}
	for i := 0; len(refs) < n; i++ {
		addr := simnet.Addr(fmt.Sprintf("n%03d", i))
		id := HashID(string(addr), bits)
		if seen[id] {
			continue
		}
		seen[id] = true
		refs = append(refs, Ref{ID: id, Addr: addr})
	}
	nodes, _, err := BuildRing(net, refs, Config{Bits: bits, SuccListSize: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestLookupCorrectnessRandomRing(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 24, 16)
	ids := make([]ID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	succOf := func(key ID) ID {
		for _, id := range ids {
			if id >= key {
				return id
			}
		}
		return ids[0]
	}
	rng := rand.New(rand.NewSource(7))
	now := simnet.VTime(0)
	for i := 0; i < 200; i++ {
		key := ID(rng.Uint64()).truncate(16)
		start := nodes[rng.Intn(len(nodes))]
		got, hops, done, err := start.Lookup(key, now)
		now = done
		if err != nil {
			t.Fatalf("lookup %d: %v", key, err)
		}
		if got.ID != succOf(key) {
			t.Errorf("lookup(%d) = %v, want %v", key, got.ID, succOf(key))
		}
		if hops > len(nodes) {
			t.Errorf("lookup(%d) took %d hops on %d-node ring", key, hops, len(nodes))
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 64, 24)
	rng := rand.New(rand.NewSource(3))
	total, count := 0, 0
	now := simnet.VTime(0)
	for i := 0; i < 300; i++ {
		key := ID(rng.Uint64()).truncate(24)
		start := nodes[rng.Intn(len(nodes))]
		_, hops, done, err := start.Lookup(key, now)
		now = done
		if err != nil {
			t.Fatal(err)
		}
		total += hops
		count++
	}
	avg := float64(total) / float64(count)
	bound := 2 * math.Log2(64)
	if avg > bound {
		t.Errorf("average hops %.2f exceeds 2·log2(N) = %.2f", avg, bound)
	}
}

func TestNodeJoinMidLife(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 10, 16)
	// a new node joins via an arbitrary member
	addr := simnet.Addr("late-joiner")
	id := HashID(string(addr), 16)
	n := NewNode(net, addr, id, Config{Bits: 16, SuccListSize: 4})
	n.Standalone()
	if _, err := n.Join(nodes[0].Addr(), 0); err != nil {
		t.Fatal(err)
	}
	all := append(nodes, n)
	Converge(all, 0)
	if !ringConsistent(all) {
		t.Error("ring not consistent after join")
	}
	// the new node must now own the keys in (pred, id]
	got, _, _, err := nodes[3].Lookup(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != id {
		t.Errorf("lookup of joiner id = %v, want %v", got.ID, id)
	}
}

func TestGracefulLeave(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 8, 16)
	leaver := nodes[3]
	leaver.Leave(0)
	net.Deregister(leaver.Addr())
	rest := append(append([]*Node(nil), nodes[:3]...), nodes[4:]...)
	Converge(rest, 0)
	if !ringConsistent(rest) {
		t.Error("ring broken after graceful leave")
	}
	// keys previously owned by the leaver now resolve to its successor
	got, _, _, err := rest[0].Lookup(leaver.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := nodes[4].ID()
	if got.ID != want {
		t.Errorf("lookup(%v) = %v, want successor %v", leaver.ID(), got.ID, want)
	}
}

// TestHandlersRejectWrongPayload sends every dispatch case that reads a
// request a payload of the wrong type: each must fail with its typed
// payload error and leave the node's pointers as they were, rather than
// act on a zero request.
func TestHandlersRejectWrongPayload(t *testing.T) {
	net := testNet()
	n := buildN(t, net, 4, 8)[1]
	pointers := func() string {
		return fmt.Sprint(n.Predecessor(), n.SuccessorList(), n.Fingers())
	}
	before := pointers()
	for _, method := range []string{MethodFindSuccessor, MethodFindSuccessorBatch, MethodNotify,
		MethodUpdateFinger, MethodSetPredecessor, MethodSetSuccessor} {
		_, _, err := n.HandleCall(0, method, simnet.Bytes(1))
		want := "chord: " + strings.TrimPrefix(method, "chord.") + " payload simnet.Bytes"
		if err == nil || err.Error() != want {
			t.Errorf("%s with a simnet.Bytes request: error %v, want %q", method, err, want)
		}
	}
	if after := pointers(); after != before {
		t.Errorf("pointers changed by rejected requests:\n%s\nwant\n%s", after, before)
	}
}

func TestCrashRecoveryViaSuccessorList(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 16, 16)
	// crash three consecutive nodes (fewer than the successor-list length)
	for _, n := range nodes[5:8] {
		net.Fail(n.Addr())
	}
	now := StabilizeRound(nodes, 0)
	now = StabilizeRound(nodes, now)
	now = StabilizeRound(nodes, now)
	var live []*Node
	for _, n := range nodes {
		if net.Alive(n.Addr()) {
			live = append(live, n)
		}
	}
	Converge(live, now)
	if !ringConsistent(nodes) {
		t.Fatal("ring did not heal after crashes")
	}
	// lookups for the dead nodes' keys must succeed at the next live node
	sortedLive := append([]*Node(nil), live...)
	sort.Slice(sortedLive, func(i, j int) bool { return sortedLive[i].ID() < sortedLive[j].ID() })
	succOf := func(key ID) ID {
		for _, n := range sortedLive {
			if n.ID() >= key {
				return n.ID()
			}
		}
		return sortedLive[0].ID()
	}
	for _, dead := range nodes[5:8] {
		got, _, _, err := live[0].Lookup(dead.ID(), now)
		if err != nil {
			t.Fatalf("lookup after crash: %v", err)
		}
		if got.ID != succOf(dead.ID()) {
			t.Errorf("lookup(%v) = %v, want %v", dead.ID(), got.ID, succOf(dead.ID()))
		}
	}
}

func TestLookupAccountsTraffic(t *testing.T) {
	net := testNet()
	nodes := buildN(t, net, 8, 16)
	net.ResetMetrics()
	_, hops, _, err := nodes[0].Lookup(nodes[4].ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if hops > 0 && m.Messages == 0 {
		t.Error("multi-hop lookup produced no traffic")
	}
	if m.PerMethod[MethodFindSuccessor].Messages != m.Messages {
		t.Errorf("all traffic should be find_successor: %+v", m.PerMethod)
	}
}

func TestSingleNodeRing(t *testing.T) {
	net := testNet()
	n := NewNode(net, "solo", HashID("solo", 16), Config{Bits: 16})
	n.Standalone()
	n.Create()
	got, hops, _, err := n.Lookup(12345, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != "solo" || hops != 0 {
		t.Errorf("solo lookup = %v hops=%d", got, hops)
	}
}

func TestIDAddWraps(t *testing.T) {
	id := ID(15)
	if got := id.add(0, 4); got != 0 {
		t.Errorf("15+1 mod 16 = %v, want 0", got)
	}
	if got := id.add(3, 4); got != 7 {
		t.Errorf("15+8 mod 16 = %v, want 7", got)
	}
}
