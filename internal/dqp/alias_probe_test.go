package dqp

import (
	"reflect"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
)

// TestAliasProbeQueries runs the paper's queries and a FROM and a FROM
// NAMED query under the E9 matrix and the other join sites, from a
// provider and from an index node, every node's handler under the alias
// probe (testutil.AliasProbe): the
// store.match replies and chain hops carry eval.Tables that the initiator
// joins in place, the data legs carry the rows the receiver goes on with,
// and no delivered payload may share memory with a node or change after
// delivery.
func TestAliasProbeQueries(t *testing.T) {
	sys, now := buildSystem(t, 4, paperData())
	now = publishScoped(t, sys, now)
	p := testutil.NewAliasProbe(reflect.TypeOf((*simnet.Network)(nil)).Elem(), reflect.TypeOf((*overlay.System)(nil)).Elem())
	for _, n := range sys.IndexNodes() {
		p.Node(string(n.Addr()), n)
		sys.Net().Register(n.Addr(), simnet.HandlerFunc(testutil.Wrap(p, string(n.Addr()), n.HandleCall)))
	}
	for _, n := range sys.StorageNodes() {
		p.Node(string(n.Addr()), n)
		sys.Net().Register(n.Addr(), simnet.HandlerFunc(testutil.Wrap(p, string(n.Addr()), n.HandleCall)))
	}
	configs := append(e9Configs(), Options{JoinSite: JoinSiteQuerySite, CacheLookups: true},
		Options{Strategy: StrategyChain, JoinSite: JoinSiteThirdSite, PushFilters: true})
	queries := append([]string(nil), scopedQueries...)
	for _, query := range paperQueries {
		queries = append(queries, query)
	}
	for _, query := range queries {
		for i, opts := range configs {
			from := simnet.Addr("D1")
			if i%2 == 1 {
				from = "idx-01"
			}
			_, _, done, err := NewEngine(sys, opts).Query(from, query, now)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			now = done
		}
	}
	p.Check(t, overlay.MethodMatch, overlay.MethodRoutedRead, overlay.MethodChainHop,
		overlay.MethodDispatch, overlay.MethodShip, overlay.MethodResult)
}
