package dqp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
)

const foaf = "http://xmlns.com/foaf/0.1/"
const exns = "http://example.org/ns#"

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
func fp(s string) rdf.Term { return rdf.NewIRI(foaf + s) }
func np(s string) rdf.Term { return rdf.NewIRI(exns + s) }

// buildSystem creates a deployment with nIndex index nodes and the given
// per-storage-node triple sets, published through the default (parallel)
// pipeline.
func buildSystem(t testing.TB, nIndex int, data map[string][]rdf.Triple) (*overlay.System, simnet.VTime) {
	t.Helper()
	return buildSystemConfig(t, nIndex, data, overlay.Config{Bits: 16, Replication: 2,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
}

// buildSystemConfig is buildSystem over an explicit overlay configuration.
func buildSystemConfig(t testing.TB, nIndex int, data map[string][]rdf.Triple, cfg overlay.Config) (*overlay.System, simnet.VTime) {
	t.Helper()
	s := overlay.NewSystem(cfg)
	now := simnet.VTime(0)
	for i := 0; i < nIndex; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	// deterministic order
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		_, done, err := s.AddStorageNode(simnet.Addr(name), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		done, err = s.Publish(simnet.Addr(name), data[name], now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, now
}

// paperData distributes the running example of the paper's figures over
// four storage nodes (providers keep their own data).
func paperData() map[string][]rdf.Triple {
	return map[string][]rdf.Triple{
		"D1": {
			{S: ex("alice"), P: fp("name"), O: rdf.NewLiteral("Alice Smith")},
			{S: ex("alice"), P: fp("knows"), O: ex("carol")},
			{S: ex("alice"), P: np("knowsNothingAbout"), O: ex("dave")},
		},
		"D2": {
			{S: ex("bob"), P: fp("name"), O: rdf.NewLiteral("Bob Smith")},
			{S: ex("bob"), P: fp("knows"), O: ex("carol")},
			{S: ex("bob"), P: fp("nick"), O: rdf.NewLiteral("Shrek")},
			{S: ex("bob"), P: fp("mbox"), O: rdf.NewIRI("mailto:abc@example.org")},
		},
		"D3": {
			{S: ex("carol"), P: fp("name"), O: rdf.NewLiteral("Carol Jones")},
			{S: ex("carol"), P: fp("age"), O: rdf.NewInteger(25)},
			{S: ex("dave"), P: fp("knows"), O: ex("carol")},
			{S: ex("dave"), P: fp("name"), O: rdf.NewLiteral("Dave Smith")},
		},
		"D4": {
			{S: ex("erin"), P: fp("knows"), O: ex("carol")},
			{S: ex("erin"), P: fp("name"), O: rdf.NewLiteral("Erin Jones")},
			{S: ex("erin"), P: np("knowsNothingAbout"), O: ex("bob")},
		},
	}
}

// unionGraph builds the centralized oracle: one graph holding every
// storage node's triples (the query dataset per Sect. IV-A).
func unionGraph(data map[string][]rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph()
	for _, ts := range data {
		g.AddAll(ts)
	}
	return g
}

// oracle evaluates the query centrally over the union graph.
func oracle(t testing.TB, data map[string][]rdf.Triple, query string) eval.Solutions {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := eval.Eval(op, unionGraph(data))
	if err != nil {
		t.Fatal(err)
	}
	return sols
}

func sameMultiset(a, b eval.Solutions) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, m := range a {
		count[m.Key()]++
	}
	for _, m := range b {
		count[m.Key()]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// allOptionCombos enumerates the strategy space for equivalence testing.
func allOptionCombos() []Options {
	var out []Options
	for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		for _, cj := range []Conjunction{ConjPipeline, ConjParallelJoin} {
			for _, js := range []JoinSitePolicy{JoinSiteMoveSmall, JoinSiteQuerySite, JoinSiteThirdSite, JoinSiteQoS} {
				for _, pf := range []bool{false, true} {
					out = append(out, Options{
						Strategy: st, Conjunction: cj, JoinSite: js,
						PushFilters: pf, ReorderJoins: true,
					})
				}
			}
		}
	}
	return out
}

var paperQueries = map[string]string{
	"fig5-primitive": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`,
	"fig6-conjunction": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }`,
	"fig7-optional": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE {
  { ?x foaf:name "Bob Smith" . ?x foaf:knows ?y . }
  OPTIONAL { ?y foaf:nick "Shrek" . }
}`,
	"fig8-union": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y ?z WHERE {
  { ?x foaf:name "Alice Smith" . ?x foaf:knows ?y . }
  UNION
  { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . }
}`,
	"fig9-filter-optional": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE {
  ?x foaf:name ?name ;
     ns:knowsNothingAbout ?y .
  FILTER regex(?name, "Smith")
  OPTIONAL { ?y foaf:knows ?z . }
}`,
	"fig4-full": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z
WHERE {
  ?x foaf:name ?name .
  ?x foaf:knows ?z .
  ?x ns:knowsNothingAbout ?y .
  ?y foaf:knows ?z .
  FILTER regex(?name, "Smith")
}
ORDER BY DESC(?x)`,
	"filter-numeric": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:age ?a . FILTER(?a >= 18) }`,
	"all-names-ordered": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 3`,
	"distinct-objects": `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT DISTINCT ?y WHERE { ?x foaf:knows ?y . }`,
}

// TestDistributedMatchesOracle is the central correctness property: for
// every paper query and every strategy combination, the distributed
// execution returns exactly the centralized result (as a multiset, before
// ordering; with ordering for ORDER BY queries).
func TestDistributedMatchesOracle(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	for name, query := range paperQueries {
		want := oracle(t, data, query)
		for _, opts := range allOptionCombos() {
			e := NewEngine(sys, opts)
			res, _, done, err := e.Query("D1", query, now)
			now = done
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !sameMultiset(res.Solutions, want) {
				t.Errorf("%s with %v/%v/%v push=%v: got %v want %v",
					name, opts.Strategy, opts.Conjunction, opts.JoinSite,
					opts.PushFilters, res.Solutions, want)
			}
		}
	}
}

// TestAskMatchesOracle: ASK may stop at the first solution only where no
// operator above the pattern can still discard it. Each query here has a
// FILTER, join or OPTIONAL that drops the row a provider happens to return
// first; the answer must be the oracle's under every option set.
func TestAskMatchesOracle(t *testing.T) {
	const prefix = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
	queries := map[string]string{
		"filter-above-pattern":   `ASK { ?x foaf:name ?n FILTER regex(?n, "Erin") }`,
		"filter-unshippable":     `ASK { ?x foaf:name ?n FILTER (bound(?z) || regex(?n, "Erin")) }`,
		"join-of-groups":         `ASK { { ?x foaf:name ?n } { ?x foaf:nick ?k } }`,
		"optional-then-filter":   `ASK { { ?x foaf:name ?n } OPTIONAL { ?x foaf:nick ?k } FILTER bound(?k) }`,
		"control-single-pattern": `ASK { ?x foaf:nick "Shrek" }`,
		"control-no-match":       `ASK { ?x foaf:name ?n FILTER regex(?n, "Zed") }`,
	}
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	combos := append(allOptionCombos(), BaselineOptions(), DefaultOptions())
	for name, query := range queries {
		want := len(oracle(t, data, prefix+query)) > 0
		if want == (name == "control-no-match") {
			t.Fatalf("%s: oracle answers %v", name, want)
		}
		for _, opts := range combos {
			e := NewEngine(sys, opts)
			for _, initiator := range []simnet.Addr{"D1", "D4"} {
				res, _, done, err := e.Query(initiator, prefix+query, now)
				now = done
				if err != nil {
					t.Fatalf("%s %+v: %v", name, opts, err)
				}
				if res.Ask != want {
					t.Errorf("%s from %s with %v/%v/%v push=%v: ASK = %v, oracle %v",
						name, initiator, opts.Strategy, opts.Conjunction, opts.JoinSite,
						opts.PushFilters, res.Ask, want)
				}
			}
		}
	}
}

func TestOrderByPreservedDistributed(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, _, err := e.Query("D2", paperQueries["all-names-ordered"], now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Solutions))
	}
	want := []string{"Alice Smith", "Bob Smith", "Carol Jones"}
	for i, w := range want {
		if got := res.Solutions[i]["n"].Value; got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
}

func TestAskDistributed(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, now, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { <http://example.org/bob> foaf:nick "Shrek" . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsAsk || !res.Ask {
		t.Errorf("ASK = %+v, want true", res)
	}
	res, _, _, err = e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { <http://example.org/carol> foaf:nick "Shrek" . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ask {
		t.Error("ASK for absent triple returned true")
	}
}

func TestConstructDistributed(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, _, err := e.Query("D3", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
CONSTRUCT { ?y ns:knownBy ?x . } WHERE { ?x foaf:knows ?y . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 4 { // alice,bob,dave,erin all know carol
		t.Fatalf("constructed %d triples, want 4: %v", len(res.Triples), res.Triples)
	}
}

func TestDescribeDistributed(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, _, err := e.Query("D1", `DESCRIBE <http://example.org/bob>`, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 4 {
		t.Fatalf("describe returned %d triples, want 4: %v", len(res.Triples), res.Triples)
	}
}

func TestAllVariablePatternFloods(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, stats, _, err := e.Query("D1", `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ts := range data {
		total += len(ts)
	}
	if len(res.Solutions) != total {
		t.Errorf("flood returned %d rows, want %d", len(res.Solutions), total)
	}
	if stats.TargetsContacted != 4 {
		t.Errorf("flood contacted %d targets, want 4", stats.TargetsContacted)
	}
}

func TestStatsAccounting(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	e := NewEngine(sys, BaselineOptions())
	_, stats, _, err := e.Query("D1", paperQueries["fig5-primitive"], now)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages <= 0 || stats.Bytes <= 0 {
		t.Errorf("no traffic recorded: %+v", stats)
	}
	if stats.ResponseTime <= 0 {
		t.Error("response time not positive")
	}
	if stats.TargetsContacted != 4 { // all four nodes have (knows, carol)
		t.Errorf("targets = %d, want 4", stats.TargetsContacted)
	}
	if stats.Subqueries < stats.TargetsContacted {
		t.Error("subqueries < targets")
	}
	if len(stats.PerMethod) == 0 {
		t.Error("per-method breakdown empty")
	}
	if stats.Solutions != 4 {
		t.Errorf("solutions = %d, want 4", stats.Solutions)
	}
}

// TestChainReducesBytesVsBasic verifies the paper's central trade-off
// claim (Sect. IV-C and V): the chained strategies reduce total
// transmission while basic processing achieves lower response time. The
// assertion uses a seeded workload large enough that the effect dominates
// fixed overheads.
func TestChainReducesBytesVsBasic(t *testing.T) {
	data := map[string][]rdf.Triple{}
	// 8 providers sharing heavily overlapping facts (personal devices in
	// the paper's scenario carry copies of the same social facts). The
	// chain's in-network aggregation merges duplicated solutions before
	// they travel; the basic fan-out ships every copy to the index node.
	// With fully disjoint provider data the inequality reverses — see the
	// E4 discussion in EXPERIMENTS.md.
	for d := 0; d < 8; d++ {
		name := fmt.Sprintf("D%d", d)
		for i := 0; i < 30; i++ {
			data[name] = append(data[name], rdf.Triple{
				S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex("carol"),
			})
		}
	}
	sys, now := buildSystem(t, 6, data)
	query := paperQueries["fig5-primitive"]

	run := func(opts Options) (Stats, eval.Solutions) {
		e := NewEngine(sys, opts)
		res, stats, done, err := e.Query("D0", query, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		return stats, res.Solutions
	}
	basic, sols1 := run(Options{Strategy: StrategyBasic})
	chain, sols2 := run(Options{Strategy: StrategyChain})
	freq, sols3 := run(Options{Strategy: StrategyFreqChain})

	if !sameMultiset(sols1, sols2) || !sameMultiset(sols2, sols3) {
		t.Fatal("strategies disagree on results")
	}
	if chain.ShippedSolutionBytes() >= basic.ShippedSolutionBytes() {
		t.Errorf("chain shipped %d bytes, basic %d — chain should ship less",
			chain.ShippedSolutionBytes(), basic.ShippedSolutionBytes())
	}
	if basic.ResponseTime >= chain.ResponseTime {
		t.Errorf("basic response %v, chain %v — basic should be faster",
			basic.ResponseTime, chain.ResponseTime)
	}
	if freq.ShippedSolutionBytes() > chain.ShippedSolutionBytes() {
		t.Errorf("freq-chain shipped %d bytes, chain %d — freq order should not ship more",
			freq.ShippedSolutionBytes(), chain.ShippedSolutionBytes())
	}
}

// TestFreqChainVisitsLargestLast checks the further-optimization ordering:
// with skewed frequencies the freq-chain must ship less than the plain
// chain (the largest partial result never travels).
func TestFreqChainVisitsLargestLast(t *testing.T) {
	data := map[string][]rdf.Triple{}
	// addresses chosen so address order visits the big node first, making
	// the plain chain's ordering pessimal
	sizes := map[string]int{"D1-big": 60, "D2-mid": 10, "D3-small": 2}
	for name, n := range sizes {
		for i := 0; i < n; i++ {
			data[name] = append(data[name], rdf.Triple{
				S: ex(fmt.Sprintf("%s-p%d", name, i)), P: fp("knows"), O: ex("carol"),
			})
		}
	}
	sys, now := buildSystem(t, 5, data)
	query := paperQueries["fig5-primitive"]

	eChain := NewEngine(sys, Options{Strategy: StrategyChain})
	_, chain, done, err := eChain.Query("D3-small", query, now)
	if err != nil {
		t.Fatal(err)
	}
	eFreq := NewEngine(sys, Options{Strategy: StrategyFreqChain})
	_, freq, _, err := eFreq.Query("D3-small", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if freq.ShippedSolutionBytes() >= chain.ShippedSolutionBytes() {
		t.Errorf("freq-chain %d bytes >= chain %d bytes under skew",
			freq.ShippedSolutionBytes(), chain.ShippedSolutionBytes())
	}
}

// TestFilterPushingReducesShippedBytes reproduces the Sect. IV-G claim:
// pushing a selective filter to the storage nodes shrinks the shipped
// intermediate results.
func TestFilterPushingReducesShippedBytes(t *testing.T) {
	data := map[string][]rdf.Triple{}
	for d := 0; d < 4; d++ {
		name := fmt.Sprintf("D%d", d)
		for i := 0; i < 40; i++ {
			n := "Jones"
			if i == 0 {
				n = "Smith"
			}
			person := ex(fmt.Sprintf("p%d-%d", d, i))
			data[name] = append(data[name],
				rdf.Triple{S: person, P: fp("name"), O: rdf.NewLiteral(fmt.Sprintf("%s %d-%d", n, d, i))})
		}
	}
	sys, now := buildSystem(t, 4, data)
	query := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:name ?n . FILTER regex(?n, "Smith") }`

	want := oracle(t, data, query)
	ePush := NewEngine(sys, Options{Strategy: StrategyChain, PushFilters: true})
	resPush, push, done, err := ePush.Query("D0", query, now)
	if err != nil {
		t.Fatal(err)
	}
	eNo := NewEngine(sys, Options{Strategy: StrategyChain, PushFilters: false})
	resNo, noPush, _, err := eNo.Query("D0", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(resPush.Solutions, want) || !sameMultiset(resNo.Solutions, want) {
		t.Fatal("filter pushing changed results")
	}
	if push.ShippedSolutionBytes() >= noPush.ShippedSolutionBytes() {
		t.Errorf("pushed %d bytes >= unpushed %d bytes",
			push.ShippedSolutionBytes(), noPush.ShippedSolutionBytes())
	}
}

// TestStorageFailureDropsPostingsAndQuerySucceeds exercises Sect. III-D:
// a crashed storage node times out, its postings are dropped at the index
// node, and the query still returns the live nodes' solutions.
func TestStorageFailureDropsPostingsAndQuerySucceeds(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	sys.FailNode("D2")
	e := NewEngine(sys, Options{Strategy: StrategyChain})
	res, stats, done, err := e.Query("D1", paperQueries["fig5-primitive"], now)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaleDrops == 0 {
		t.Error("no stale drop recorded for the failed node")
	}
	// live nodes still answer: alice, dave, erin know carol (bob is down)
	if len(res.Solutions) != 3 {
		t.Errorf("solutions = %d, want 3 from live nodes", len(res.Solutions))
	}
	// a repeat query must not contact the dead node again (postings gone)
	_, stats2, _, err := e.Query("D1", paperQueries["fig5-primitive"], done)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StaleDrops != 0 {
		t.Errorf("second query still hit the dead node (drops=%d)", stats2.StaleDrops)
	}
}

func TestJoinSitePolicies(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	query := paperQueries["fig6-conjunction"]
	want := oracle(t, data, query)
	for _, js := range []JoinSitePolicy{JoinSiteMoveSmall, JoinSiteQuerySite, JoinSiteThirdSite} {
		e := NewEngine(sys, Options{
			Strategy: StrategyChain, Conjunction: ConjParallelJoin, JoinSite: js,
		})
		res, _, done, err := e.Query("D4", query, now)
		now = done
		if err != nil {
			t.Fatalf("%v: %v", js, err)
		}
		if !sameMultiset(res.Solutions, want) {
			t.Errorf("%v: wrong results %v", js, res.Solutions)
		}
	}
}

func TestEmptyResultShortCircuits(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	// the pipeline stops at the empty first pattern; the wave sends nothing
	// once planning finds a pattern no provider lists
	for _, opts := range []Options{{Strategy: StrategyChain, Conjunction: ConjPipeline}, DefaultOptions()} {
		e := NewEngine(sys, opts)
		res, stats, done, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE { ?x foaf:knows <http://example.org/nobody> . ?x foaf:name ?y . }`, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if len(res.Solutions) != 0 {
			t.Errorf("%v/%v: expected empty result, got %v", opts.Strategy, opts.Conjunction, res.Solutions)
		}
		// the second pattern must not have been executed at any storage node
		if stats.Subqueries != 0 {
			t.Errorf("%v/%v did not short-circuit: %d subqueries", opts.Strategy, opts.Conjunction, stats.Subqueries)
		}
	}
}

func TestExplain(t *testing.T) {
	data := paperData()
	sys, _ := buildSystem(t, 3, data)
	e := NewEngine(sys, DefaultOptions())
	plan, err := e.Explain(paperQueries["fig9-filter-optional"])
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Error("empty plan")
	}
}

// Explain prints the plan Run executes. Under ReorderJoins the BGP keeps
// its query order: the frequency reorder happens at plan time inside exec,
// not in the algebra. A bare DESCRIBE, which Run answers, explains too.
func TestExplainShowsThePlanRunExecutes(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 3, data)
	opts := DefaultOptions()
	opts.ReorderJoins = true
	e := NewEngine(sys, opts)
	plan, err := e.Explain(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE { ?x foaf:name ?n . ?x foaf:knows <http://example.org/carol> . }`)
	if err != nil {
		t.Fatal(err)
	}
	name, knows := strings.Index(plan, foaf+"name"), strings.Index(plan, foaf+"knows")
	if name < 0 || knows < 0 || name > knows {
		t.Errorf("plan does not keep the query's pattern order: %s", plan)
	}

	describe := `DESCRIBE <http://example.org/alice>`
	res, _, _, err := e.Query("D1", describe, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 3 {
		t.Errorf("DESCRIBE answered %d triples, want 3: %v", len(res.Triples), res.Triples)
	}
	plan, err = e.Explain(describe)
	if err != nil {
		t.Fatalf("Explain of a bare DESCRIBE: %v", err)
	}
	if want := "Describe(" + ex("alice").String() + ")"; plan != want {
		t.Errorf("bare DESCRIBE plan = %q, want %q", plan, want)
	}
}

func TestQuerySyntaxErrorSurfaces(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 3, data)
	e := NewEngine(sys, DefaultOptions())
	if _, _, _, err := e.Query("D1", `SELECT ?x WHERE {`, now); err == nil {
		t.Error("expected syntax error")
	}
}

func TestInitiatorCanBeIndexNode(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	want := oracle(t, data, paperQueries["fig5-primitive"])
	res, _, _, err := e.Query("idx-00", paperQueries["fig5-primitive"], now)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(res.Solutions, want) {
		t.Errorf("index-node initiator got %v", res.Solutions)
	}
}

func TestPipelineSemiJoinShipsLessOnSelectiveFirstPattern(t *testing.T) {
	// One provider has a single rare triple; another has many. Pipeline
	// with reordering starts at the rare pattern, so the second pattern's
	// execution is seeded with few rows.
	data := map[string][]rdf.Triple{
		"D-rare": {{S: ex("alice"), P: np("knowsNothingAbout"), O: ex("dave")}},
	}
	for i := 0; i < 50; i++ {
		data["D-many"] = append(data["D-many"], rdf.Triple{
			S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex(fmt.Sprintf("q%d", i)),
		})
	}
	data["D-many"] = append(data["D-many"], rdf.Triple{S: ex("alice"), P: fp("knows"), O: ex("carol")})
	sys, now := buildSystem(t, 4, data)
	query := paperQueries["fig6-conjunction"]
	want := oracle(t, data, query)

	ordered := NewEngine(sys, Options{Strategy: StrategyChain, Conjunction: ConjPipeline, ReorderJoins: true})
	resO, statsO, done, err := ordered.Query("D-rare", query, now)
	if err != nil {
		t.Fatal(err)
	}
	unordered := NewEngine(sys, Options{Strategy: StrategyChain, Conjunction: ConjPipeline, ReorderJoins: false})
	resU, statsU, _, err := unordered.Query("D-rare", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(resO.Solutions, want) || !sameMultiset(resU.Solutions, want) {
		t.Fatal("reordering changed results")
	}
	if statsO.ShippedSolutionBytes() > statsU.ShippedSolutionBytes() {
		t.Errorf("reordered pipeline shipped %d > unordered %d",
			statsO.ShippedSolutionBytes(), statsU.ShippedSolutionBytes())
	}
}

func TestJoinSiteQoSCorrectAndAdaptive(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	query := paperQueries["fig6-conjunction"]
	want := oracle(t, data, query)
	// correctness under QoS placement
	e := NewEngine(sys, Options{
		Strategy: StrategyFreqChain, Conjunction: ConjParallelJoin,
		JoinSite: JoinSiteQoS, PushFilters: true, ReorderJoins: true,
	})
	res, _, done, err := e.Query("D1", query, now)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(res.Solutions, want) {
		t.Fatalf("QoS placement changed results: %v", res.Solutions)
	}
	// adaptivity: degrade every provider; the cross-product merge must
	// avoid the slow sites and complete no slower than move-small
	for _, st := range sys.StorageNodes() {
		if st.Addr() != "D1" {
			sys.Net().SetLinkFactor(st.Addr(), 8)
		}
	}
	cross := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE {
  { ?x foaf:knows <http://example.org/carol> . }
  { ?y foaf:name ?n . }
}`
	eMove := NewEngine(sys, Options{Strategy: StrategyChain, Conjunction: ConjParallelJoin, JoinSite: JoinSiteMoveSmall})
	_, moveStats, done, err := eMove.Query("D1", cross, done)
	if err != nil {
		t.Fatal(err)
	}
	eQoS := NewEngine(sys, Options{Strategy: StrategyChain, Conjunction: ConjParallelJoin, JoinSite: JoinSiteQoS})
	_, qosStats, _, err := eQoS.Query("D1", cross, done)
	if err != nil {
		t.Fatal(err)
	}
	if qosStats.ResponseTime > moveStats.ResponseTime {
		t.Errorf("QoS response %v slower than move-small %v on degraded links",
			qosStats.ResponseTime, moveStats.ResponseTime)
	}
}

func TestResultSerialization(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, done, err := e.Query("D1", paperQueries["all-names-ordered"], now)
	if err != nil {
		t.Fatal(err)
	}
	var js, csvb, tsv strings.Builder
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"bindings"`) || !strings.Contains(js.String(), "Alice Smith") {
		t.Errorf("JSON output: %s", js.String())
	}
	if err := res.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvb.String(), "n\n") {
		t.Errorf("CSV header: %q", csvb.String())
	}
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tsv.String(), "?n\n") {
		t.Errorf("TSV header: %q", tsv.String())
	}
	// ASK → boolean JSON
	ask, _, _, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { <http://example.org/bob> foaf:nick "Shrek" . }`, done)
	if err != nil {
		t.Fatal(err)
	}
	js.Reset()
	if err := ask.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"boolean": true`) {
		t.Errorf("ASK JSON: %s", js.String())
	}
	// CONSTRUCT → N-Triples
	con, _, _, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
CONSTRUCT { ?y ns:knownBy ?x . } WHERE { ?x foaf:knows ?y . }`, done)
	if err != nil {
		t.Fatal(err)
	}
	var nt strings.Builder
	if err := con.WriteNTriples(&nt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nt.String(), "knownBy") {
		t.Errorf("N-Triples output: %q", nt.String())
	}
}

func TestLookupCacheEliminatesRoutingTraffic(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	query := paperQueries["fig5-primitive"]
	want := oracle(t, data, query)
	e := NewEngine(sys, Options{Strategy: StrategyChain, CacheLookups: true})

	res1, stats1, done, err := e.Query("D1", query, now)
	if err != nil {
		t.Fatal(err)
	}
	res2, stats2, _, err := e.Query("D1", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits == 0 {
		t.Fatal("second query answered no lookup from the cache")
	}
	if !sameMultiset(res1.Solutions, want) || !sameMultiset(res2.Solutions, want) {
		t.Fatal("caching changed results")
	}
	if stats2.LookupHops != 0 {
		t.Errorf("second query still routed: %d hops", stats2.LookupHops)
	}
	if stats2.IndexBytes() >= stats1.IndexBytes() {
		t.Errorf("index traffic not reduced: %d vs %d", stats2.IndexBytes(), stats1.IndexBytes())
	}
	if stats2.ResponseTime >= stats1.ResponseTime {
		t.Errorf("cached query not faster: %v vs %v", stats2.ResponseTime, stats1.ResponseTime)
	}
}

func TestLookupCacheInvalidatedOnStaleNode(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	query := paperQueries["fig5-primitive"]
	e := NewEngine(sys, Options{Strategy: StrategyChain, CacheLookups: true})
	_, _, done, err := e.Query("D1", query, now)
	if err != nil {
		t.Fatal(err)
	}
	sys.FailNode("D2")
	// the cached row still lists D2; the first query observes the timeout,
	// drops D2 from both the index and the cache
	res, stats, done, err := e.Query("D1", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaleDrops == 0 {
		t.Error("stale node not observed")
	}
	if len(res.Solutions) != 3 {
		t.Errorf("solutions = %d, want 3 live answers", len(res.Solutions))
	}
	// subsequent queries use the invalidated cache: no more drops
	_, stats2, _, err := e.Query("D1", query, done)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StaleDrops != 0 {
		t.Errorf("cache still lists the dead node (drops=%d)", stats2.StaleDrops)
	}
}

func TestLookupCacheEviction(t *testing.T) {
	c := newLookupCache(2)
	c.put(1, cachedRow{index: "a"})
	c.put(2, cachedRow{index: "b"})
	c.put(3, cachedRow{index: "c"})
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2 after eviction", c.Len())
	}
	if _, ok := c.get(1); ok {
		t.Error("oldest entry not evicted")
	}
}

func TestDatasetFROMScoping(t *testing.T) {
	// Two named graphs on different providers: FROM selects which facts a
	// query sees (paper Sect. IV-A).
	data := map[string][]rdf.Triple{"D1": nil, "D2": nil}
	sys, now := buildSystem(t, 4, data)
	g2015 := "http://example.org/graphs/2015"
	g2020 := "http://example.org/graphs/2020"
	now, err := sys.PublishGraph("D1", g2015, []rdf.Triple{
		{S: ex("alice"), P: fp("knows"), O: ex("bob")},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = sys.PublishGraph("D2", g2020, []rdf.Triple{
		{S: ex("alice"), P: fp("knows"), O: ex("carol")},
		{S: ex("dave"), P: fp("knows"), O: ex("bob")},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	// default graph content too
	now, err = sys.Publish("D1", []rdf.Triple{
		{S: ex("erin"), P: fp("knows"), O: ex("bob")},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sys, DefaultOptions())

	// no FROM: union of everything (default + named graphs)
	res, _, now2, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE { ?x foaf:knows ?y . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	now = now2
	if len(res.Solutions) != 4 {
		t.Errorf("no-FROM query = %d rows, want 4", len(res.Solutions))
	}

	// FROM g2015: only that graph's facts
	res, _, now2, err = e.Query("D1", fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y FROM <%s> WHERE { ?x foaf:knows ?y . }`, g2015), now)
	if err != nil {
		t.Fatal(err)
	}
	now = now2
	if len(res.Solutions) != 1 || res.Solutions[0]["y"] != ex("bob") {
		t.Errorf("FROM 2015 = %v, want alice→bob", res.Solutions)
	}

	// FROM both graphs: merged default graph
	res, _, _, err = e.Query("D2", fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y FROM <%s> FROM <%s> WHERE { ?x foaf:knows ?y . }`, g2015, g2020), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Errorf("FROM both = %d rows, want 3", len(res.Solutions))
	}
	for _, b := range res.Solutions {
		if b["x"] == ex("erin") {
			t.Error("FROM-scoped query leaked the default graph")
		}
	}
}

func TestDatasetFROMUnknownGraphEmpty(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 4, data)
	e := NewEngine(sys, DefaultOptions())
	res, _, _, err := e.Query("D1", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x FROM <http://example.org/nothing> WHERE { ?x foaf:knows ?y . }`, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("unknown FROM graph returned %v", res.Solutions)
	}
}

func TestGraphKeywordDistributed(t *testing.T) {
	data := map[string][]rdf.Triple{"D1": nil, "D2": nil}
	sys, now := buildSystem(t, 4, data)
	gFriends := "http://example.org/graphs/friends"
	gWork := "http://example.org/graphs/work"
	now, err := sys.PublishGraph("D1", gFriends, []rdf.Triple{
		{S: ex("alice"), P: fp("knows"), O: ex("bob")},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = sys.PublishGraph("D2", gWork, []rdf.Triple{
		{S: ex("alice"), P: fp("knows"), O: ex("carol")},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sys, DefaultOptions())

	// constant GRAPH
	res, _, now2, err := e.Query("D1", fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?y WHERE { GRAPH <%s> { <http://example.org/alice> foaf:knows ?y . } }`, gFriends), now)
	if err != nil {
		t.Fatal(err)
	}
	now = now2
	if len(res.Solutions) != 1 || res.Solutions[0]["y"] != ex("bob") {
		t.Errorf("GRAPH friends = %v", res.Solutions)
	}

	// variable GRAPH binds the graph IRI
	res, _, now2, err = e.Query("D2", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?g ?y WHERE { GRAPH ?g { <http://example.org/alice> foaf:knows ?y . } }`, now)
	if err != nil {
		t.Fatal(err)
	}
	now = now2
	if len(res.Solutions) != 2 {
		t.Fatalf("GRAPH ?g = %v, want 2 rows", res.Solutions)
	}
	graphs := map[string]bool{}
	for _, b := range res.Solutions {
		graphs[b["g"].Value] = true
	}
	if !graphs[gFriends] || !graphs[gWork] {
		t.Errorf("graph bindings = %v", graphs)
	}

	// FROM NAMED restricts GRAPH iteration
	res, _, _, err = e.Query("D1", fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?g ?y FROM NAMED <%s> WHERE { GRAPH ?g { ?x foaf:knows ?y . } }`, gWork), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["g"].Value != gWork {
		t.Errorf("FROM NAMED restriction = %v", res.Solutions)
	}
}

func TestGraphKeywordAllStrategies(t *testing.T) {
	data := map[string][]rdf.Triple{"D1": nil, "D2": nil, "D3": nil}
	sys, now := buildSystem(t, 4, data)
	g := "http://example.org/graphs/g"
	for i, d := range []string{"D1", "D2", "D3"} {
		var err error
		now, err = sys.PublishGraph(simnet.Addr(d), g, []rdf.Triple{
			{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex("carol")},
		}, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	query := fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { GRAPH <%s> { ?x foaf:knows <http://example.org/carol> . } }`, g)
	for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		e := NewEngine(sys, Options{Strategy: st})
		res, _, done, err := e.Query("D1", query, now)
		now = done
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(res.Solutions) != 3 {
			t.Errorf("%v: %d solutions, want 3", st, len(res.Solutions))
		}
	}
}

func TestAskShortCircuitSavesWork(t *testing.T) {
	// many providers all hold a matching triple; ASK should not visit all
	data := map[string][]rdf.Triple{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("A%d", i)
		data[name] = []rdf.Triple{{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex("carol")}}
	}
	sys, now := buildSystem(t, 5, data)
	ask := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { ?x foaf:knows <http://example.org/carol> . }`
	sel := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`
	e := NewEngine(sys, Options{Strategy: StrategyChain})
	resAsk, askStats, done, err := e.Query("A0", ask, now)
	if err != nil {
		t.Fatal(err)
	}
	if !resAsk.Ask {
		t.Fatal("ASK answer wrong")
	}
	resSel, selStats, _, err := e.Query("A0", sel, done)
	if err != nil {
		t.Fatal(err)
	}
	if len(resSel.Solutions) != 10 {
		t.Fatalf("SELECT = %d rows", len(resSel.Solutions))
	}
	if askStats.Subqueries >= selStats.Subqueries {
		t.Errorf("ASK ran %d subqueries, SELECT %d — no short circuit",
			askStats.Subqueries, selStats.Subqueries)
	}
	// negative ASK still visits everything and answers false
	resNo, _, _, err := e.Query("A0", `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { ?x foaf:knows <http://example.org/nobody> . }`, done)
	if err != nil {
		t.Fatal(err)
	}
	if resNo.Ask {
		t.Error("negative ASK answered true")
	}
}
