package optimize

import (
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
)

func mustOp(t *testing.T, src string) algebra.Op {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func v(s string) rdf.Term   { return rdf.NewVar(s) }
func iri(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }

func TestHeuristicEstimatorOrdering(t *testing.T) {
	h := HeuristicEstimator{}
	spo := rdf.Triple{S: iri("s"), P: iri("p"), O: iri("o")}
	sp := rdf.Triple{S: iri("s"), P: iri("p"), O: v("o")}
	po := rdf.Triple{S: v("s"), P: iri("p"), O: iri("o")}
	s := rdf.Triple{S: iri("s"), P: v("p"), O: v("o")}
	p := rdf.Triple{S: v("s"), P: iri("p"), O: v("o")}
	all := rdf.Triple{S: v("s"), P: v("p"), O: v("o")}
	if !(h.EstimatePattern(spo) < h.EstimatePattern(sp) &&
		h.EstimatePattern(sp) < h.EstimatePattern(po) &&
		h.EstimatePattern(po) < h.EstimatePattern(s) &&
		h.EstimatePattern(s) < h.EstimatePattern(p) &&
		h.EstimatePattern(p) < h.EstimatePattern(all)) {
		t.Error("heuristic estimator does not respect bound-mask selectivity order")
	}
}

func TestGraphEstimatorExact(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("c")})
	e := GraphEstimator{G: g}
	if got := e.EstimatePattern(rdf.Triple{S: iri("a"), P: iri("p"), O: v("o")}); got != 2 {
		t.Errorf("estimate = %d, want 2", got)
	}
}

func TestFilterPushIntoJoinSide(t *testing.T) {
	// The filter references only ?n from the left branch of the union-free
	// join, so it must move below the Join.
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE {
  { ?x f:name ?n . }
  { ?y f:knows ?x . }
  FILTER regex(?n, "Smith")
}`)
	// ensure precondition: Filter above a Join
	if _, ok := op.(*algebra.Project).Input.(*algebra.Filter); !ok {
		t.Fatalf("precondition failed: %s", op)
	}
	out := Optimize(op, Options{PushFilters: true})
	j, ok := out.(*algebra.Project).Input.(*algebra.Join)
	if !ok {
		t.Fatalf("filter not pushed below join: %s", out)
	}
	if _, ok := j.Left.(*algebra.Filter); !ok {
		t.Errorf("filter should sit on the left branch: %s", out)
	}
	if _, ok := j.Right.(*algebra.Filter); ok {
		t.Errorf("filter must not reach the right branch: %s", out)
	}
}

func TestFilterNotPushedIntoOptionalSide(t *testing.T) {
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE {
  ?x f:name ?n .
  OPTIONAL { ?x f:nick ?k . }
  FILTER regex(?k, "Sh")
}`)
	out := Optimize(op, Options{PushFilters: true})
	// ?k is only bound by the optional side; pushing would change
	// semantics, so the filter stays above the LeftJoin.
	f, ok := out.(*algebra.Project).Input.(*algebra.Filter)
	if !ok {
		t.Fatalf("filter must remain above LeftJoin: %s", out)
	}
	if _, ok := f.Input.(*algebra.LeftJoin); !ok {
		t.Errorf("expected LeftJoin under the filter: %s", out)
	}
}

func TestFilterPushedToLeftJoinMandatorySide(t *testing.T) {
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE {
  ?x f:name ?n .
  OPTIONAL { ?x f:nick ?k . }
  FILTER regex(?n, "Smith")
}`)
	out := Optimize(op, Options{PushFilters: true})
	lj, ok := out.(*algebra.Project).Input.(*algebra.LeftJoin)
	if !ok {
		t.Fatalf("filter should be pushed below the LeftJoin: %s", out)
	}
	if _, ok := lj.Left.(*algebra.Filter); !ok {
		t.Errorf("filter should wrap the mandatory side: %s", out)
	}
}

func TestFilterDistributesOverUnion(t *testing.T) {
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE {
  { { ?x f:a ?n . } UNION { ?x f:b ?n . } }
  FILTER(?n > 3)
}`)
	out := Optimize(op, Options{PushFilters: true})
	u, ok := out.(*algebra.Project).Input.(*algebra.Union)
	if !ok {
		t.Fatalf("filter should distribute over union: %s", out)
	}
	if _, ok := u.Left.(*algebra.Filter); !ok {
		t.Errorf("left branch missing filter: %s", out)
	}
	if _, ok := u.Right.(*algebra.Filter); !ok {
		t.Errorf("right branch missing filter: %s", out)
	}
}

func TestFilterConjunctSplit(t *testing.T) {
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE {
  { ?x f:name ?n . }
  { ?y f:age ?a . }
  FILTER(regex(?n, "S") && ?a > 10)
}`)
	out := Optimize(op, Options{PushFilters: true})
	j, ok := out.(*algebra.Project).Input.(*algebra.Join)
	if !ok {
		t.Fatalf("conjuncts should both be pushed: %s", out)
	}
	if _, ok := j.Left.(*algebra.Filter); !ok {
		t.Errorf("name conjunct not on left: %s", out)
	}
	if _, ok := j.Right.(*algebra.Filter); !ok {
		t.Errorf("age conjunct not on right: %s", out)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	g := rdf.NewGraph()
	f := func(s string) rdf.Term { return rdf.NewIRI("http://f/" + s) }
	g.AddAll([]rdf.Triple{
		{S: iri("a"), P: f("name"), O: rdf.NewLiteral("Smith A")},
		{S: iri("b"), P: f("name"), O: rdf.NewLiteral("Jones B")},
		{S: iri("a"), P: f("knows"), O: iri("b")},
		{S: iri("b"), P: f("knows"), O: iri("a")},
		{S: iri("a"), P: f("age"), O: rdf.NewInteger(40)},
		{S: iri("b"), P: f("age"), O: rdf.NewInteger(12)},
		{S: iri("b"), P: f("nick"), O: rdf.NewLiteral("Shrek")},
	})
	queries := []string{
		`PREFIX f: <http://f/> SELECT ?x ?y WHERE { ?x f:knows ?y . ?x f:name ?n . FILTER regex(?n, "Smith") }`,
		`PREFIX f: <http://f/> SELECT ?x WHERE { ?x f:name ?n . OPTIONAL { ?x f:nick ?k . } FILTER(!bound(?k)) }`,
		`PREFIX f: <http://f/> SELECT ?x WHERE { { ?x f:age ?a . } UNION { ?x f:name ?a . } }`,
		`PREFIX f: <http://f/> SELECT ?x ?a WHERE { ?x f:age ?a . ?x f:knows ?y . FILTER(?a > 18) }`,
		`PREFIX f: <http://f/> SELECT ?x WHERE { ?x f:knows ?y . ?y f:nick ?k . OPTIONAL { ?y f:age ?g . FILTER(?g > 100) } }`,
	}
	for _, src := range queries {
		op := mustOp(t, src)
		want, err := eval.Eval(op, g)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		opt := Optimize(op, Options{PushFilters: true, ReorderBGP: true, Estimator: GraphEstimator{G: g}})
		got, err := eval.Eval(opt, g)
		if err != nil {
			t.Fatalf("%s (optimized): %v", src, err)
		}
		if !sameMultiset(want, got) {
			t.Errorf("%s:\noptimization changed results\nplain: %v\nopt:   %v\nplan:  %s",
				src, want, got, opt)
		}
	}
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

func TestReorderPatternsSelectivityFirst(t *testing.T) {
	// most selective (spo-ish) should come first; connectivity respected
	pats := []rdf.Triple{
		{S: v("x"), P: iri("p1"), O: v("y")},   // p-only: cheap rank 2500
		{S: v("y"), P: iri("p2"), O: iri("o")}, // po: rank 25
		{S: v("z"), P: iri("p3"), O: v("w")},   // disconnected from first two
	}
	out := ReorderPatterns(pats, HeuristicEstimator{})
	if out[0] != pats[1] {
		t.Errorf("most selective pattern should lead: %v", out)
	}
	if out[1] != pats[0] {
		t.Errorf("connected pattern should come before disconnected: %v", out)
	}
	if out[2] != pats[2] {
		t.Errorf("disconnected pattern should trail: %v", out)
	}
}

func TestReorderPatternsStatsDriven(t *testing.T) {
	g := rdf.NewGraph()
	// p1 has 100 matches, p2 has 1
	for i := 0; i < 100; i++ {
		g.Add(rdf.Triple{S: iri("s"), P: iri("p1"), O: rdf.NewInteger(int64(i))})
	}
	g.Add(rdf.Triple{S: iri("s"), P: iri("p2"), O: iri("only")})
	pats := []rdf.Triple{
		{S: v("x"), P: iri("p1"), O: v("a")},
		{S: v("x"), P: iri("p2"), O: v("b")},
	}
	out := ReorderPatterns(pats, GraphEstimator{G: g})
	if out[0].P != iri("p2") {
		t.Errorf("stats-driven reorder should lead with the rare predicate: %v", out)
	}
}

func TestReorderPreservesMultiset(t *testing.T) {
	pats := []rdf.Triple{
		{S: v("a"), P: iri("p"), O: v("b")},
		{S: v("b"), P: iri("q"), O: v("c")},
		{S: v("c"), P: iri("r"), O: iri("x")},
	}
	out := ReorderPatterns(pats, nil)
	if len(out) != 3 {
		t.Fatalf("lost patterns: %v", out)
	}
	seen := map[string]bool{}
	for _, p := range out {
		seen[p.String()] = true
	}
	for _, p := range pats {
		if !seen[p.String()] {
			t.Errorf("pattern %v missing after reorder", p)
		}
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	op := mustOp(t, `PREFIX f: <http://f/>
SELECT ?x WHERE { ?x f:a ?y . ?y f:b f:c . FILTER(?y != f:c) }`)
	before := op.String()
	Optimize(op, DefaultOptions())
	if op.String() != before {
		t.Error("Optimize mutated its input tree")
	}
}

func TestOptimizeExplainString(t *testing.T) {
	op := mustOp(t, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE {
  ?x foaf:name ?name ;
     ns:knowsNothingAbout ?y .
  FILTER regex(?name, "Smith")
  OPTIONAL { ?y foaf:knows ?z . }
}`)
	out := Optimize(op, Options{PushFilters: true})
	s := out.String()
	// Fig. 9's optimized form: the regex filter sits inside the LeftJoin's
	// mandatory side rather than above the whole expression.
	idxLJ := strings.Index(s, "LeftJoin(")
	idxF := strings.Index(s, "Filter(")
	if idxLJ == -1 || idxF == -1 || idxF < idxLJ {
		t.Errorf("expected filter inside LeftJoin: %s", s)
	}
}
