package chord

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adhocshare/internal/flight"
	"adhocshare/internal/simnet"
)

// nextHop is the routing decision a handler forwards on, taken the way
// the handlers take it: under mu.
func (n *Node) nextHop(target ID) Ref {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nextHopLocked(target)
}

// damage rewrites a converged node's routing state the way failures and
// churn leave it: fingers zeroed or pointing at the node itself, a
// successor-list entry set to self, and live successors evicted.
func damage(rng *rand.Rand, n *Node) {
	n.mu.Lock()
	for i := range n.fingers {
		switch rng.Intn(6) {
		case 0:
			n.fingers[i] = Ref{}
		case 1:
			n.fingers[i] = n.Ref()
		}
	}
	if len(n.succ) > 1 && rng.Intn(3) == 0 {
		n.succ[rng.Intn(len(n.succ))] = n.Ref()
	}
	succ := append([]Ref(nil), n.succ...)
	n.mu.Unlock()
	for _, s := range succ {
		if s.Addr != n.addr && rng.Intn(3) == 0 {
			n.evict(s.Addr, 0)
		}
	}
}

// routeTargets lists the identifiers a ring's routing is checked on: the
// whole circle when it is small, otherwise every node identifier, its two
// neighbours and a random sample.
func routeTargets(rng *rand.Rand, nodes []*Node, bits uint) []ID {
	if bits <= 10 {
		out := make([]ID, 1<<bits)
		for i := range out {
			out[i] = ID(i)
		}
		return out
	}
	var out []ID
	for _, n := range nodes {
		out = append(out, n.ID(), n.ID().add(0, bits), (n.ID() + ID(1)<<bits - 1).truncate(bits))
	}
	for i := 0; i < 256; i++ {
		out = append(out, ID(rng.Uint64()).truncate(bits))
	}
	return out
}

// TestNextHopIsHeadOfRouteCandidates is the routing differential: on
// random rings (Bits 8–24, 2–64 nodes) whose routing state is damaged —
// zeroed fingers, self entries, evicted successors — the one decision a
// hop forwards on is the head of the eager candidate list for every
// target, and the batch handler groups every target it does not answer
// under that same hop.
func TestNextHopIsHeadOfRouteCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		bits := uint(8 + rng.Intn(17))
		size := 2 + rng.Intn(63)
		if trial == 0 {
			bits, size = 24, 64
		}
		nodes := buildN(t, testNet(), size, bits)
		for _, n := range nodes {
			if rng.Intn(4) != 0 {
				damage(rng, n)
			}
		}
		targets := routeTargets(rng, nodes, bits)
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, n := range nodes {
			for _, target := range targets {
				var want Ref
				if cands := n.RouteCandidates(target); len(cands) > 0 {
					want = cands[0]
				}
				if got := n.nextHop(target); got != want {
					t.Fatalf("bits %d, %d nodes, %v → %v: nextHop = %v, RouteCandidates[0] = %v",
						bits, size, n.ID(), target, got, want)
				}
			}
			answered := make([]Ref, len(targets))
			_, groups, err := n.RouteBatch(targets, answered)
			if err != nil {
				continue // some target has no candidate left; nextHop agreed above
			}
			for next, idxs := range groups {
				for _, i := range idxs {
					if hop := n.nextHop(targets[i]); next != hop.Addr {
						t.Fatalf("%v → %v grouped under %s, next hop %s", n.ID(), targets[i], next, hop.Addr)
					}
				}
			}
		}
	}
}

// routedTarget finds a node and a target it does not own whose eager
// candidate list has at least three entries, and returns that list.
func routedTarget(t *testing.T, nodes []*Node, bits uint) (*Node, ID, []Ref) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		n := nodes[rng.Intn(len(nodes))]
		target := ID(rng.Uint64()).truncate(bits)
		succ := n.Successor()
		if betweenRightIncl(target, n.ID(), succ.ID) {
			continue
		}
		if cands := n.RouteCandidates(target); len(cands) >= 3 {
			return n, target, cands
		}
	}
	t.Fatal("no target with three routing candidates")
	return nil, 0, nil
}

// fallbackPeers lists, in virtual-time order, the peers of n's retry and
// evict flight events.
func fallbackPeers(rec *flight.Recorder, n *Node) (retried, evicted []simnet.Addr) {
	for _, e := range rec.NodeEvents(string(n.Addr())) {
		switch e.Kind {
		case flight.KindRetry:
			retried = append(retried, simnet.Addr(e.Peer))
		case flight.KindEvict:
			evicted = append(evicted, simnet.Addr(e.Peer))
		}
	}
	return retried, evicted
}

func addrsOf(refs []Ref) []simnet.Addr {
	out := make([]simnet.Addr, len(refs))
	for i, r := range refs {
		out[i] = r.Addr
	}
	return out
}

// TestFailedHopFallsBackInEagerOrder holds handleFindSuccessor, which
// builds the candidate list only once its first hop fails, to the order
// of the list built before any hop: crashing the first hop, every
// candidate, or making every link lossy, the retry and evict flight
// events name the eager list's peers in its order.
func TestFailedHopFallsBackInEagerOrder(t *testing.T) {
	cases := []struct {
		name  string
		crash int // how many leading candidates crash; -1 = all
		lossy bool
		fails bool
	}{
		{name: "first hop crashed", crash: 1},
		{name: "every candidate crashed", crash: -1, fails: true},
		{name: "every link lossy", lossy: true, fails: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := testNet()
			nodes := buildN(t, net, 32, 16)
			rec := flight.NewRecorder(4096)
			net.SetFlightRecorder(rec)
			n, target, eager := routedTarget(t, nodes, 16)
			crashed := eager
			if tc.crash >= 0 {
				crashed = eager[:tc.crash]
			}
			for _, c := range crashed {
				net.Fail(c.Addr)
			}
			if tc.lossy {
				net.SetFaults(&simnet.FaultPlan{Seed: 1, LossRate: 1 - 1e-12})
			}
			_, _, err := n.handleFindSuccessor(0, FindReq{Target: target})
			if tc.fails != errors.Is(err, ErrLookupFailed) {
				t.Fatalf("lookup error = %v, want failure %v", err, tc.fails)
			}
			retried, evicted := fallbackPeers(rec, n)
			wantRetried := addrsOf(crashed)
			if tc.lossy {
				wantRetried = addrsOf(eager)
			}
			if !slices.Equal(retried, wantRetried) {
				t.Errorf("retried %v, want %v (eager list %v)", retried, wantRetried, addrsOf(eager))
			}
			if wantEvicted := addrsOf(crashed); tc.lossy && len(evicted) > 0 || !tc.lossy && !slices.Equal(evicted, wantEvicted) {
				t.Errorf("evicted %v, want %v (lossy %v)", evicted, wantEvicted, tc.lossy)
			}
		})
	}
}

// groupSink makes the reference groups below escape as RouteBatch's do.
var groupSink struct {
	order  []simnet.Addr
	groups map[simnet.Addr][]int
}

// TestRouteBatchAllocatesOnlyItsGroups holds the batch handler's routing
// loop to its groups: routing a batch allocates no more than building the
// same groups from next hops decided in advance.
func TestRouteBatchAllocatesOnlyItsGroups(t *testing.T) {
	nodes := buildN(t, testNet(), 32, 16)
	n := nodes[0]
	rng := rand.New(rand.NewSource(9))
	targets := make([]ID, 1024)
	for i := range targets {
		targets[i] = ID(rng.Uint64()).truncate(16)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	answered := make([]Ref, len(targets))
	order, groups, err := n.RouteBatch(targets, answered)
	if err != nil || len(order) < 2 {
		t.Fatalf("RouteBatch: %d groups, %v; want several groups", len(order), err)
	}
	hops := make([]simnet.Addr, len(targets)) // "" = answered by the successor
	for next, idxs := range groups {
		for _, i := range idxs {
			hops[i] = next
		}
	}
	reference := testing.AllocsPerRun(50, func() {
		groups := map[simnet.Addr][]int{}
		var order []simnet.Addr
		for i, next := range hops {
			if next == "" {
				continue
			}
			if _, ok := groups[next]; !ok {
				order = append(order, next)
			}
			groups[next] = append(groups[next], i)
		}
		groupSink.order, groupSink.groups = order, groups
	})
	routing := testing.AllocsPerRun(50, func() {
		if _, _, err := n.RouteBatch(targets, answered); err != nil {
			t.Fatal(err)
		}
	})
	if routing > reference {
		t.Errorf("routing %d targets into %d groups allocates %.0f times, the groups alone %.0f", len(targets), len(order), routing, reference)
	}
}
