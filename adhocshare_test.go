package adhocshare

import (
	"strings"
	"testing"
)

const foafNS = "http://xmlns.com/foaf/0.1/"

func personTriples(name string, person string, knows ...string) []Triple {
	p := NewIRI("http://example.org/" + person)
	out := []Triple{{S: p, P: NewIRI(foafNS + "name"), O: NewLiteral(name)}}
	for _, k := range knows {
		out = append(out, Triple{S: p, P: NewIRI(foafNS + "knows"), O: NewIRI("http://example.org/" + k)})
	}
	return out
}

func newDemo(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Config{IndexNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	providers := map[string][]Triple{
		"alice-laptop": personTriples("Alice Smith", "alice", "bob", "carol"),
		"bob-phone":    personTriples("Bob Jones", "bob", "carol"),
		"carol-tablet": personTriples("Carol Smith", "carol", "alice"),
	}
	for name, ts := range providers {
		if err := sys.AddProvider(name, ts); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := newDemo(t)
	snap := sys.Snapshot()
	if snap.IndexNodes != 5 || snap.StorageNodes != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.TotalTriples != 7 {
		t.Errorf("triples = %d, want 7", snap.TotalTriples)
	}
	if snap.TotalPostings == 0 {
		t.Error("no postings installed")
	}
	res, stats, err := sys.Query("alice-laptop", `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v, want alice and bob", res.Solutions)
	}
	if stats.Messages == 0 || stats.ResponseTime <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestQueryWithStrategies(t *testing.T) {
	sys := newDemo(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, "Smith") }`
	for _, opts := range []QueryOptions{
		BaselineQueryOptions(),
		DefaultQueryOptions(),
		{Strategy: StrategyChain, Conjunction: ConjPipeline, JoinSite: JoinSiteThirdSite},
	} {
		res, _, err := sys.QueryWith("bob-phone", q, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(res.Solutions) != 2 {
			t.Errorf("%+v: got %v", opts, res.Solutions)
		}
	}
}

func TestPublishReaderAndRetract(t *testing.T) {
	sys := newDemo(t)
	nt := `<http://example.org/dave> <http://xmlns.com/foaf/0.1/knows> <http://example.org/carol> .`
	if err := sys.AddProvider("dave-pc", nil); err != nil {
		t.Fatal(err)
	}
	n, err := sys.PublishReader("dave-pc", strings.NewReader(nt))
	if err != nil || n != 1 {
		t.Fatalf("publish reader: %d, %v", n, err)
	}
	res, _, err := sys.Query("dave-pc", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %d, want 3 after publish", len(res.Solutions))
	}
	ts, _ := ParseNTriples(strings.NewReader(nt))
	if err := sys.Retract("dave-pc", ts); err != nil {
		t.Fatal(err)
	}
	res, _, err = sys.Query("dave-pc", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %d, want 2 after retract", len(res.Solutions))
	}
}

func TestFailureAndRecovery(t *testing.T) {
	sys := newDemo(t)
	sys.FailNode("bob-phone")
	res, stats, err := sys.Query("alice-laptop", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Errorf("solutions = %v, want only alice while bob is down", res.Solutions)
	}
	if stats.StaleDrops == 0 {
		t.Error("failure not observed")
	}
}

func TestIndexChurnViaFacade(t *testing.T) {
	sys := newDemo(t)
	if _, err := sys.AddIndexNode("index-late"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveIndexGraceful("index-00"); err != nil {
		t.Fatal(err)
	}
	sys.Stabilize(2)
	res, _, err := sys.Query("carol-tablet", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("solutions after churn = %v", res.Solutions)
	}
}

func TestExplainFacade(t *testing.T) {
	sys := newDemo(t)
	plan, err := sys.Explain(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:name ?n . FILTER regex(?n, "Smith") }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Filter") || !strings.Contains(plan, "BGP") {
		t.Errorf("plan = %q", plan)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	sys := newDemo(t)
	before := sys.Now()
	if _, _, err := sys.Query("alice-laptop", `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`); err != nil {
		t.Fatal(err)
	}
	if sys.Now() <= before {
		t.Error("virtual time did not advance")
	}
}

func TestPublishTurtleFacade(t *testing.T) {
	sys := newDemo(t)
	if err := sys.AddProvider("ttl-node", nil); err != nil {
		t.Fatal(err)
	}
	ttl := `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://example.org/> .
ex:dave foaf:knows ex:carol ;
        foaf:name "Dave" .
`
	n, err := sys.PublishTurtle("ttl-node", strings.NewReader(ttl))
	if err != nil || n != 2 {
		t.Fatalf("PublishTurtle = %d, %v", n, err)
	}
	res, _, err := sys.Query("ttl-node", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Errorf("solutions = %d, want 3", len(res.Solutions))
	}
}

func TestCachingPersistsAcrossFacadeQueries(t *testing.T) {
	sys := newDemo(t)
	opts := DefaultQueryOptions()
	opts.CacheLookups = true
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`
	_, s1, err := sys.QueryWith("alice-laptop", q, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := sys.QueryWith("alice-laptop", q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LookupHops != 0 || s2.IndexBytes() >= s1.IndexBytes() {
		t.Errorf("cache did not persist: hops=%d index=%d vs %d",
			s2.LookupHops, s2.IndexBytes(), s1.IndexBytes())
	}
}

func TestSetLinkFactorFacade(t *testing.T) {
	sys := newDemo(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`
	_, fast, err := sys.Query("alice-laptop", q)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetLinkFactor("bob-phone", 10)
	_, slow, err := sys.Query("alice-laptop", q)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ResponseTime <= fast.ResponseTime {
		t.Errorf("degraded link did not slow the query: %v vs %v",
			slow.ResponseTime, fast.ResponseTime)
	}
}

func TestPublishToGraphFacade(t *testing.T) {
	sys := newDemo(t)
	if err := sys.AddProvider("graphs-node", nil); err != nil {
		t.Fatal(err)
	}
	g := "http://example.org/graphs/friends"
	err := sys.PublishToGraph("graphs-node", g, []Triple{
		{S: NewIRI("http://example.org/zed"), P: NewIRI(foafNS + "knows"), O: NewIRI("http://example.org/carol")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot counts a named graph's triples with the default graphs'.
	if snap := sys.Snapshot(); snap.TotalTriples != 8 {
		t.Errorf("triples = %d, want the demo's 7 and the named graph's 1", snap.TotalTriples)
	}
	res, _, err := sys.Query("graphs-node", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x FROM <`+g+`> WHERE { ?x foaf:knows ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Errorf("FROM-scoped facade query = %v", res.Solutions)
	}
}
