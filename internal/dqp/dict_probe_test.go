package dqp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
	"adhocshare/internal/workload"
)

// dictProbe holds every payload a query puts on the wire to the reference
// encoder (testutil.CheckWire): each request a wrapped node's handler is
// delivered, and each reply. A table must be charged what the encoder
// writes for its rows, which it reads cell by cell, whatever the table's
// own dictionary holds.
type dictProbe struct {
	t    *testing.T
	seen map[string]int // payloads checked, by type
}

// wrap puts the probe on every node's handler.
func (p *dictProbe) wrap(sys *overlay.System) {
	for _, n := range sys.IndexNodes() {
		p.wrapNode(sys.Net(), n.Addr(), n)
	}
	for _, n := range sys.StorageNodes() {
		p.wrapNode(sys.Net(), n.Addr(), n)
	}
}

func (p *dictProbe) wrapNode(net *simnet.Network, addr simnet.Addr, h simnet.Handler) {
	net.Register(addr, simnet.HandlerFunc(func(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
		p.payload(req)
		resp, done, err := h.HandleCall(at, method, req)
		if err == nil && resp != nil {
			p.payload(resp)
		}
		return resp, done, err
	}))
}

func (p *dictProbe) payload(payload simnet.Payload) {
	kind := strings.TrimPrefix(fmt.Sprintf("%T", payload), "dqp.")
	p.seen[kind]++
	if err := testutil.CheckWire(payload); err != nil {
		p.t.Errorf("%s: %v", kind, err)
	}
}

// scopedGraph is a named graph the probe scenarios publish, and
// scopedQueries a FROM and a FROM NAMED query over it: their match requests
// carry a dataset scope, which every unit is charged.
const scopedGraph = "http://example.org/graphs/work"

var scopedQueries = []string{
	`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y FROM <` + scopedGraph + `> WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }`,
	`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?g ?x ?y FROM NAMED <` + scopedGraph + `> WHERE { GRAPH ?g { ?x foaf:knows ?y . } }`,
}

// publishScoped publishes scopedGraph on D1 and D3.
func publishScoped(t *testing.T, sys *overlay.System, now simnet.VTime) simnet.VTime {
	t.Helper()
	for i, d := range []simnet.Addr{"D1", "D3"} {
		var err error
		now, err = sys.PublishGraph(d, scopedGraph, []rdf.Triple{
			{S: ex(fmt.Sprintf("worker%d", i)), P: fp("knows"), O: ex("carol")},
			{S: ex("carol"), P: fp("name"), O: rdf.NewLiteral("Carol Jones")},
		}, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// TestDictProbeQueries runs the paper's queries, a FROM and a FROM NAMED
// query and join_mix's five classes under the E9 matrix, the default and
// baseline options and the other join sites, from a provider and from an
// index node, with every payload on the wire under the probe; each of the
// five payload types that carry tables must have been seen.
func TestDictProbeQueries(t *testing.T) {
	configs := append(e9Configs(), DefaultOptions(), BaselineOptions(),
		Options{JoinSite: JoinSiteQoS, PushFilters: true},
		Options{Strategy: StrategyChain, JoinSite: JoinSiteThirdSite, PushFilters: true},
		Options{Strategy: StrategyFreqChain, Conjunction: ConjParallelJoin, JoinSite: JoinSiteQuerySite, CacheLookups: true})
	d := workload.Generate(workload.Config{Persons: 120, Providers: 6, AvgKnows: 4, ZipfS: 1.3,
		KnowsNothingFraction: 0.3, Seed: 3})
	classes := []string{workload.QueryConjunction(), workload.QueryOptional("Smith"),
		workload.QueryUnion(d.PopularPerson), workload.QueryFilter("Smith"), workload.QueryFig4("Smith")}
	var names, paper []string
	for name := range paperQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		paper = append(paper, paperQueries[name])
	}
	p := &dictProbe{t: t, seen: map[string]int{}}
	for _, c := range []struct {
		data    map[string][]rdf.Triple
		scoped  bool
		queries []string
	}{{paperData(), true, append(paper, scopedQueries...)}, {d.ByProvider, false, classes}} {
		sys, now := buildSystem(t, 4, c.data)
		if c.scoped {
			now = publishScoped(t, sys, now)
		}
		p.wrap(sys)
		for _, query := range c.queries {
			for i, opts := range configs {
				from := sys.StorageNodes()[i%len(sys.StorageNodes())].Addr()
				if i%2 == 1 {
					from = sys.IndexNodes()[0].Addr()
				}
				_, _, done, err := NewEngine(sys, opts).Query(from, query, now)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				now = done
			}
		}
	}
	t.Logf("payloads checked: %v", p.seen)
	for _, kind := range []string{"overlay.MatchReq", "overlay.MatchResp", "dispatchPayload", "rowsPayload", "overlay.ChainReq"} {
		if p.seen[kind] == 0 {
			t.Errorf("no %s was seen", kind)
		}
	}
}
