package chord

import (
	"fmt"
	"reflect"
	"testing"

	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
)

// TestAliasProbeRing builds a ring, joins and repairs a node, has one leave
// gracefully, runs maintenance rounds and batch lookups, every handler
// under the alias probe (testutil.AliasProbe): no delivered payload may
// share memory with a node, and every Chord method must have been
// delivered.
func TestAliasProbeRing(t *testing.T) {
	net := testNet()
	p := testutil.NewAliasProbe(reflect.TypeOf((*simnet.Network)(nil)).Elem())
	node := func(i int) *Node {
		addr := simnet.Addr(fmt.Sprintf("n%03d", i))
		n := NewNode(net, addr, HashID(string(addr), 16), Config{Bits: 16, SuccListSize: 4})
		p.Node(string(addr), n)
		net.Register(addr, simnet.HandlerFunc(testutil.Wrap(p, string(addr), n.HandleCall)))
		return n
	}
	nodes := []*Node{node(0)}
	nodes[0].Create()
	now := simnet.VTime(0)
	for i := 1; i < 8; i++ {
		n := node(i)
		done, err := n.Join(nodes[0].Addr(), now)
		if err != nil {
			t.Fatal(err)
		}
		now = nodes[0].Stabilize(n.Stabilize(done))
		nodes = append(nodes, n)
	}
	now = Converge(nodes, now)
	j := node(8)
	done, err := j.Join(nodes[3].Addr(), now)
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, j)
	if _, now, err = RepairJoin(nodes, j, done); err != nil {
		t.Fatal(err)
	}
	l := nodes[2]
	now = l.Leave(now)
	net.Deregister(l.Addr())
	nodes = append(nodes[:2], nodes[3:]...)
	if _, now, err = RepairLeave(nodes, l, now); err != nil {
		t.Fatal(err)
	}
	now = StabilizeRound(nodes, now)
	targets := []ID{1, 900, 30000, 65000}
	if _, _, err := net.Call(nodes[0].Addr(), nodes[4].Addr(), MethodFindSuccessorBatch, BatchFindReq{Targets: targets}, now); err != nil {
		t.Fatal(err)
	}
	p.Check(t, MethodFindSuccessor, MethodFindSuccessorBatch, MethodGetPredecessor, MethodGetSuccList,
		MethodNotify, MethodPing, MethodUpdateFinger, MethodSetPredecessor, MethodSetSuccessor)
}
