package rdfpeers

import (
	"fmt"
	"reflect"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
)

// TestAliasProbeBaseline stores triples and runs single-pattern, flooded,
// conjunctive and range queries, every node's handler under the alias
// probe (testutil.AliasProbe): no delivered payload may share memory with
// a node or change after delivery — the range result is sorted before it
// ships, not after — and every RDFPeers method must have been delivered.
func TestAliasProbeBaseline(t *testing.T) {
	s, now := newRing(t, 6)
	if err := s.EnableRangeIndex(0, 100); err != nil {
		t.Fatal(err)
	}
	p := testutil.NewAliasProbe(reflect.TypeOf((*simnet.Network)(nil)).Elem())
	for addr, n := range s.nodes {
		p.Node(string(addr), n)
		s.net.Register(addr, simnet.HandlerFunc(testutil.Wrap(p, string(addr), n.HandleCall)))
	}
	ts := sampleTriples()
	for i := 1; i <= 6; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: fp("age"), O: rdf.NewInteger(int64(15 * i))})
	}
	now, err := s.StoreAll("rp-00", ts, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []rdf.Triple{{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")}, {S: rdf.NewVar("s"), P: rdf.NewVar("p"), O: rdf.NewVar("o")}} {
		if _, now, err = s.QueryPattern("rp-02", pat, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, now, err = s.QueryConjunctive("rp-05", "s", []rdf.Triple{
		{S: rdf.NewVar("s"), P: fp("based_near"), O: ex("paris")},
		{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")},
	}, now); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err = s.QueryRange("rp-03", fp("age"), 20, 80, now); err != nil {
		t.Fatal(err)
	}
	p.Check(t, MethodStore, MethodMatch, MethodIntersect, MethodRange, MethodResult)
}
