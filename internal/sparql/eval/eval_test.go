package eval

import (
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
)

const foaf = "http://xmlns.com/foaf/0.1/"
const exns = "http://example.org/ns#"

func p(s string) rdf.Term  { return rdf.NewIRI(foaf + s) }
func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

// fig7Graph builds a small social graph exercising the paper's examples.
func fig7Graph() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddAll([]rdf.Triple{
		{S: ex("alice"), P: p("name"), O: rdf.NewLiteral("Alice Smith")},
		{S: ex("alice"), P: p("knows"), O: ex("bob")},
		{S: ex("alice"), P: p("knows"), O: ex("carol")},
		{S: ex("bob"), P: p("name"), O: rdf.NewLiteral("Bob Smith")},
		{S: ex("bob"), P: p("knows"), O: ex("carol")},
		{S: ex("bob"), P: p("nick"), O: rdf.NewLiteral("Shrek")},
		{S: ex("carol"), P: p("name"), O: rdf.NewLiteral("Carol Jones")},
		{S: ex("carol"), P: p("age"), O: rdf.NewInteger(25)},
		{S: ex("alice"), P: rdf.NewIRI(exns + "knowsNothingAbout"), O: ex("dave")},
		{S: ex("dave"), P: p("knows"), O: ex("carol")},
	})
	return g
}

func run(t *testing.T, g *rdf.Graph, src string) Solutions {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Eval(op, g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvalPrimitive(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`)
	if len(s) != 3 {
		t.Fatalf("solutions = %d, want 3 (alice, bob, dave)", len(s))
	}
}

func TestEvalConjunction(t *testing.T) {
	// Fig. 6-style: who knows ?z and knowsNothingAbout ?y
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }`)
	if len(s) != 2 { // alice knows bob, carol; alice kNA dave
		t.Fatalf("solutions = %d, want 2", len(s))
	}
	for _, m := range s {
		if m["x"] != ex("alice") || m["y"] != ex("dave") {
			t.Errorf("unexpected row %v", m)
		}
	}
}

func TestEvalSharedVariableJoin(t *testing.T) {
	// Fig. 4 core: ?x knows ?z, ?x kNA ?y, ?y knows ?z
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE {
  ?x foaf:knows ?z .
  ?x ns:knowsNothingAbout ?y .
  ?y foaf:knows ?z .
}`)
	if len(s) != 1 {
		t.Fatalf("solutions = %d, want 1", len(s))
	}
	m := s[0]
	if m["x"] != ex("alice") || m["y"] != ex("dave") || m["z"] != ex("carol") {
		t.Errorf("row = %v", m)
	}
}

func TestEvalOptionalFig7(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y WHERE {
  { ?x foaf:name ?n . ?x foaf:knows ?y . FILTER regex(?n, "Smith") }
  OPTIONAL { ?y foaf:nick "Shrek" . }
}`)
	// alice knows bob & carol; bob knows carol → 3 rows, all kept by OPT
	if len(s) != 3 {
		t.Fatalf("solutions = %d, want 3", len(s))
	}
	for _, m := range s {
		if !m.Bound("y") {
			t.Errorf("y unbound in %v", m)
		}
	}
}

func TestEvalOptionalKeepsUnmatched(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?nick WHERE {
  ?x foaf:name ?n .
  OPTIONAL { ?x foaf:nick ?nick . }
}`)
	if len(s) != 3 {
		t.Fatalf("solutions = %d, want 3", len(s))
	}
	withNick := 0
	for _, m := range s {
		if m.Bound("nick") {
			withNick++
			if m["x"] != ex("bob") {
				t.Errorf("nick bound for %v", m["x"])
			}
		}
	}
	if withNick != 1 {
		t.Errorf("withNick = %d, want 1", withNick)
	}
}

func TestEvalUnionFig8(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y ?z WHERE {
  { ?x foaf:name "Alice Smith" . ?x foaf:knows ?y . }
  UNION
  { ?x foaf:nick "Shrek" . ?x foaf:knows ?z . }
}`)
	if len(s) != 3 { // alice→bob, alice→carol via left; bob→carol via right
		t.Fatalf("solutions = %d, want 3", len(s))
	}
}

func TestEvalFilterRegex(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:name ?n . FILTER regex(?n, "Smith") }`)
	if len(s) != 2 {
		t.Fatalf("solutions = %d, want 2", len(s))
	}
}

func TestEvalFilterNumericComparison(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:age ?a . FILTER(?a >= 18 && ?a < 65) }`)
	if len(s) != 1 || s[0]["x"] != ex("carol") {
		t.Fatalf("solutions = %v", s)
	}
	s = run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:age ?a . FILTER(?a > 30) }`)
	if len(s) != 0 {
		t.Fatalf("solutions = %v, want none", s)
	}
}

func TestEvalFilterBoundAndNegation(t *testing.T) {
	// people with a name but no nick (negation by failure via OPTIONAL+!bound)
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE {
  ?x foaf:name ?n .
  OPTIONAL { ?x foaf:nick ?k . }
  FILTER(!bound(?k))
}`)
	if len(s) != 2 {
		t.Fatalf("solutions = %d, want 2 (alice, carol)", len(s))
	}
}

func TestEvalOrderByDesc(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE { ?x foaf:name ?n . } ORDER BY DESC(?n)`)
	if len(s) != 3 {
		t.Fatalf("solutions = %d", len(s))
	}
	if s[0]["n"].Value != "Carol Jones" || s[2]["n"].Value != "Alice Smith" {
		t.Errorf("order = %v %v %v", s[0]["n"], s[1]["n"], s[2]["n"])
	}
}

func TestEvalOrderByMultiKey(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll([]rdf.Triple{
		{S: ex("a"), P: p("grp"), O: rdf.NewInteger(1)},
		{S: ex("b"), P: p("grp"), O: rdf.NewInteger(1)},
		{S: ex("c"), P: p("grp"), O: rdf.NewInteger(0)},
	})
	s := run(t, g, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?g WHERE { ?x foaf:grp ?g . } ORDER BY ?g DESC(?x)`)
	if s[0]["x"] != ex("c") || s[1]["x"] != ex("b") || s[2]["x"] != ex("a") {
		t.Errorf("multi-key order wrong: %v", s)
	}
}

// TestEvalOrderTiesUnboundAndErrors pins ORDER BY's sequence where keys tie,
// are unbound or fail to evaluate — both of which sort first, ascending —
// for the mappings and for the same rows as a table.
func TestEvalOrderTiesUnboundAndErrors(t *testing.T) {
	row := func(x, y rdf.Term) Binding {
		b := NewBinding()
		for v, term := range map[string]rdf.Term{"x": x, "y": y} {
			if !term.IsZero() {
				b[v] = term
			}
		}
		return b
	}
	one, two, str := rdf.NewInteger(1), rdf.NewInteger(2), rdf.NewLiteral("str")
	rows := Solutions{
		row(two, rdf.NewLiteral("b")),
		row(one, rdf.Term{}),
		row(str, rdf.NewLiteral("a")),
		row(one, rdf.NewLiteral("c")),
		row(rdf.Term{}, rdf.NewLiteral("a")),
		row(two, rdf.NewLiteral("a")),
	}
	x, y := &sparql.ExprVar{Name: "x"}, &sparql.ExprVar{Name: "y"}
	cases := []struct {
		conds []sparql.OrderCond
		want  []int // input positions, in output order
	}{
		// ?x unbound first; DESC(?y) puts the unbound ?y of a tie last
		{[]sparql.OrderCond{{Expr: x}, {Expr: y, Desc: true}}, []int{4, 3, 1, 0, 5, 2}},
		// "str" + 1 and an unbound ?x both fail: tied first, in input order
		{[]sparql.OrderCond{{Expr: &sparql.ExprArith{Op: sparql.ArithAdd, Left: x, Right: &sparql.ExprTerm{Term: one}}}},
			[]int{2, 4, 1, 3, 0, 5}},
	}
	for _, c := range cases {
		want := make(Solutions, len(c.want))
		for k, i := range c.want {
			want[k] = rows[i]
		}
		sameSequence(t, "Order", Order(rows, c.conds), want)
		sameSequence(t, "Table.Order", rowsOf(tableOf(rows, "x", "y").Order(c.conds)), want)
	}
}

func TestEvalLimitOffset(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 1 OFFSET 1`)
	if len(s) != 1 || s[0]["n"].Value != "Bob Smith" {
		t.Fatalf("solutions = %v", s)
	}
}

func TestEvalDistinct(t *testing.T) {
	s := run(t, fig7Graph(), `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT DISTINCT ?y WHERE { ?x foaf:knows ?y . }`)
	if len(s) != 2 { // bob, carol
		t.Fatalf("distinct objects = %d, want 2", len(s))
	}
}

func TestEvalRepeatedVariableInPattern(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: ex("n"), P: p("knows"), O: ex("n")})
	g.Add(rdf.Triple{S: ex("m"), P: p("knows"), O: ex("q")})
	s := run(t, g, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows ?x . }`)
	if len(s) != 1 || s[0]["x"] != ex("n") {
		t.Fatalf("self-loop query = %v", s)
	}
}

func TestEvalBGPWithSeeds(t *testing.T) {
	g := fig7Graph()
	seeds := Solutions{bnd2("x", ex("alice")), bnd2("x", ex("carol"))}
	s := EvalBGP(g, []rdf.Triple{{S: rdf.NewVar("x"), P: p("knows"), O: rdf.NewVar("z")}}, seeds)
	if len(s) != 2 { // alice knows bob, carol; carol knows nobody
		t.Fatalf("seeded eval = %d rows, want 2", len(s))
	}
	for _, m := range s {
		if m["x"] != ex("alice") {
			t.Errorf("row %v", m)
		}
	}
}

func bnd2(k string, v rdf.Term) Binding {
	b := NewBinding()
	b[k] = v
	return b
}

func TestEvalAskStyleNonEmpty(t *testing.T) {
	q, err := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { <http://example.org/alice> foaf:knows <http://example.org/bob> . }`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Eval(op, fig7Graph())
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Error("ASK should find the triple")
	}
}

func TestConstruct(t *testing.T) {
	q, err := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
CONSTRUCT { ?y ns:knownBy ?x . } WHERE { ?x foaf:knows ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Eval(op, fig7Graph())
	if err != nil {
		t.Fatal(err)
	}
	// one template variable left unbound in every row: no triple from it
	q.Template = append(q.Template, rdf.Triple{S: rdf.NewVar("y"), P: p("knows"), O: rdf.NewVar("z")})
	ts := Construct(q.Template, tableOf(s, "x", "y", "z"))
	if len(ts) != 4 {
		t.Fatalf("constructed %d triples, want 4", len(ts))
	}
	for _, tr := range ts {
		if tr.P != rdf.NewIRI(exns+"knownBy") {
			t.Errorf("constructed %v", tr)
		}
	}
}

func TestEvalEmptyGraph(t *testing.T) {
	s := run(t, rdf.NewGraph(), `SELECT ?x WHERE { ?x ?p ?o . }`)
	if len(s) != 0 {
		t.Errorf("empty graph gave %d rows", len(s))
	}
}

func TestLeftJoinFilterCondition(t *testing.T) {
	// LeftJoin with embedded filter: rows failing the condition keep Ω1.
	a := Solutions{bnd2("x", ex("a")).Merge(bnd2("v", rdf.NewInteger(5)))}
	b := Solutions{bnd2("x", ex("a")).Merge(bnd2("w", rdf.NewInteger(1)))}
	cond := &sparql.ExprCmp{
		Op:    sparql.CmpGt,
		Left:  &sparql.ExprVar{Name: "v"},
		Right: &sparql.ExprVar{Name: "w"},
	}
	out := LeftJoinFilter(a, b, cond)
	if len(out) != 1 || !out[0].Bound("w") {
		t.Fatalf("leftjoin filter out = %v", out)
	}
	condFail := &sparql.ExprCmp{
		Op:    sparql.CmpLt,
		Left:  &sparql.ExprVar{Name: "v"},
		Right: &sparql.ExprVar{Name: "w"},
	}
	out = LeftJoinFilter(a, b, condFail)
	if len(out) != 1 || out[0].Bound("w") {
		t.Fatalf("failing condition should keep left row only: %v", out)
	}
}

func TestEvalGraphConstant(t *testing.T) {
	ds := &Dataset{
		Default: rdf.NewGraph(),
		Named:   map[string]*rdf.Graph{"http://g1": rdf.NewGraph(), "http://g2": rdf.NewGraph()},
	}
	ds.Default.Add(rdf.Triple{S: ex("a"), P: p("knows"), O: ex("b")})
	ds.Named["http://g1"].Add(rdf.Triple{S: ex("c"), P: p("knows"), O: ex("d")})
	ds.Named["http://g2"].Add(rdf.Triple{S: ex("e"), P: p("knows"), O: ex("f")})

	q, err := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { GRAPH <http://g1> { ?x foaf:knows ?y . } }`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := EvalDataset(op, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["x"] != ex("c") {
		t.Errorf("GRAPH <g1> = %v, want c", sols)
	}
	// absent graph: empty
	q2, _ := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { GRAPH <http://nope> { ?x foaf:knows ?y . } }`)
	op2, _ := algebra.Translate(q2)
	sols, err = EvalDataset(op2, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Errorf("absent graph returned %v", sols)
	}
}

func TestEvalGraphVariable(t *testing.T) {
	ds := &Dataset{
		Default: rdf.NewGraph(),
		Named:   map[string]*rdf.Graph{"http://g1": rdf.NewGraph(), "http://g2": rdf.NewGraph()},
	}
	ds.Named["http://g1"].Add(rdf.Triple{S: ex("c"), P: p("knows"), O: ex("d")})
	ds.Named["http://g2"].Add(rdf.Triple{S: ex("e"), P: p("knows"), O: ex("f")})
	ds.Named["http://g2"].Add(rdf.Triple{S: ex("g"), P: p("knows"), O: ex("h")})

	q, err := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?g ?x WHERE { GRAPH ?g { ?x foaf:knows ?y . } }`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := EvalDataset(op, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Fatalf("GRAPH ?g = %d rows, want 3", len(sols))
	}
	byGraph := map[string]int{}
	for _, b := range sols {
		byGraph[b["g"].Value]++
	}
	if byGraph["http://g1"] != 1 || byGraph["http://g2"] != 2 {
		t.Errorf("per-graph counts = %v", byGraph)
	}
}

func TestEvalGraphJoinWithDefault(t *testing.T) {
	// join a default-graph pattern with a GRAPH-scoped pattern
	ds := &Dataset{Default: rdf.NewGraph(), Named: map[string]*rdf.Graph{"http://meta": rdf.NewGraph()}}
	ds.Default.Add(rdf.Triple{S: ex("alice"), P: p("knows"), O: ex("bob")})
	ds.Default.Add(rdf.Triple{S: ex("carol"), P: p("knows"), O: ex("bob")})
	ds.Named["http://meta"].Add(rdf.Triple{S: ex("alice"), P: p("verified"), O: rdf.NewBoolean(true)})

	q, err := sparql.Parse(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE {
  ?x foaf:knows ?y .
  GRAPH <http://meta> { ?x foaf:verified true . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := EvalDataset(op, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["x"] != ex("alice") {
		t.Errorf("cross-graph join = %v", sols)
	}
}
