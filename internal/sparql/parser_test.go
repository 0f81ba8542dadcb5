package sparql

import (
	"strings"
	"testing"

	"adhocshare/internal/rdf"
)

const foaf = "http://xmlns.com/foaf/0.1/"
const ns = "http://example.org/ns#"

// paperFig4 is the SPARQL query of the paper's Fig. 4 (with the ORDER BY
// moved outside the braces where the grammar requires it).
const paperFig4 = `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z
FROM <http://example.org/foaf/xyzFoaf>
WHERE {
  ?x foaf:name ?name .
  ?x foaf:knows ?z .
  ?x ns:knowsNothingAbout ?y .
  ?y foaf:knows ?z .
  FILTER regex(?name, "Smith")
}
ORDER BY DESC(?x)
`

func TestParseFig4(t *testing.T) {
	q, err := Parse(paperFig4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormSelect {
		t.Errorf("form = %v, want SELECT", q.Form)
	}
	if len(q.SelectVars) != 3 || q.SelectVars[0] != "x" || q.SelectVars[2] != "z" {
		t.Errorf("select vars = %v", q.SelectVars)
	}
	if len(q.From) != 1 || q.From[0] != "http://example.org/foaf/xyzFoaf" {
		t.Errorf("FROM = %v", q.From)
	}
	g, ok := q.Where.(*Group)
	if !ok {
		t.Fatalf("where = %T, want *Group", q.Where)
	}
	bgp, ok := g.Elems[0].(*BGP)
	if !ok {
		t.Fatalf("first elem = %T, want *BGP", g.Elems[0])
	}
	if len(bgp.Patterns) != 4 {
		t.Fatalf("BGP has %d patterns, want 4", len(bgp.Patterns))
	}
	if bgp.Patterns[0].P != rdf.NewIRI(foaf+"name") {
		t.Errorf("pattern 0 predicate = %v", bgp.Patterns[0].P)
	}
	if bgp.Patterns[2].P != rdf.NewIRI(ns+"knowsNothingAbout") {
		t.Errorf("pattern 2 predicate = %v", bgp.Patterns[2].P)
	}
	f, ok := g.Elems[1].(*Filter)
	if !ok {
		t.Fatalf("second elem = %T, want *Filter", g.Elems[1])
	}
	call, ok := f.Expr.(*ExprCall)
	if !ok || call.Name != "REGEX" || len(call.Args) != 2 {
		t.Errorf("filter expr = %v", f.Expr)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
}

func TestParsePrimitiveFig5(t *testing.T) {
	q, err := Parse(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x WHERE { ?x foaf:knows ns:me . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp, ok := q.Where.(*BGP)
	if !ok {
		t.Fatalf("where = %T, want *BGP", q.Where)
	}
	if len(bgp.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(bgp.Patterns))
	}
	p := bgp.Patterns[0]
	if !p.S.IsVar() || p.P != rdf.NewIRI(foaf+"knows") || p.O != rdf.NewIRI(ns+"me") {
		t.Errorf("pattern = %v", p)
	}
}

func TestParseOptionalFig7(t *testing.T) {
	q, err := Parse(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y
WHERE {
  { ?x foaf:name "Smith" .
    ?x foaf:knows ?y . }
  OPTIONAL { ?y foaf:nick "Shrek" . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := q.Where.(*Group)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if len(g.Elems) != 2 {
		t.Fatalf("group elems = %d, want 2", len(g.Elems))
	}
	if _, ok := g.Elems[0].(*BGP); !ok {
		t.Errorf("elem 0 = %T, want *BGP", g.Elems[0])
	}
	opt, ok := g.Elems[1].(*Optional)
	if !ok {
		t.Fatalf("elem 1 = %T, want *Optional", g.Elems[1])
	}
	if _, ok := opt.Pattern.(*BGP); !ok {
		t.Errorf("optional inner = %T, want *BGP", opt.Pattern)
	}
}

func TestParseUnionFig8(t *testing.T) {
	q, err := Parse(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?y ?z
WHERE {
  { ?x foaf:name "Smith" . ?x foaf:knows ?y . }
  UNION
  { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := q.Where.(*Union)
	if !ok {
		t.Fatalf("where = %T, want *Union", q.Where)
	}
	lb, ok := u.Left.(*BGP)
	if !ok || len(lb.Patterns) != 2 {
		t.Errorf("left branch wrong: %v", u.Left)
	}
	rb, ok := u.Right.(*BGP)
	if !ok || len(rb.Patterns) != 2 {
		t.Errorf("right branch wrong: %v", u.Right)
	}
	if rb.Patterns[0].O != rdf.NewIRI("mailto:abc@example.org") {
		t.Errorf("mbox object = %v", rb.Patterns[0].O)
	}
}

func TestParseFilterFig9SemicolonAbbreviation(t *testing.T) {
	q, err := Parse(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z
WHERE {
  ?x foaf:name ?name ;
     ns:knowsNothingAbout ?y .
  FILTER regex(?name, "Smith")
  OPTIONAL { ?y foaf:knows ?z . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := q.Where.(*Group)
	bgp := g.Elems[0].(*BGP)
	if len(bgp.Patterns) != 2 {
		t.Fatalf("';' abbreviation produced %d patterns, want 2", len(bgp.Patterns))
	}
	if bgp.Patterns[0].S != bgp.Patterns[1].S {
		t.Error("';' abbreviation must share the subject")
	}
	if _, ok := g.Elems[1].(*Filter); !ok {
		t.Errorf("elem 1 = %T, want *Filter", g.Elems[1])
	}
	if _, ok := g.Elems[2].(*Optional); !ok {
		t.Errorf("elem 2 = %T, want *Optional", g.Elems[2])
	}
}

func TestParseObjectListComma(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/> SELECT ?x WHERE { ?x f:likes f:a, f:b, f:c . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.(*BGP)
	if len(bgp.Patterns) != 3 {
		t.Fatalf("',' abbreviation produced %d patterns, want 3", len(bgp.Patterns))
	}
	for _, p := range bgp.Patterns {
		if p.P != rdf.NewIRI("http://f/likes") {
			t.Errorf("predicate = %v", p.P)
		}
	}
}

func TestParseAsk(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/> ASK { f:a f:knows f:b . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormAsk {
		t.Errorf("form = %v, want ASK", q.Form)
	}
}

func TestParseConstruct(t *testing.T) {
	q, err := Parse(`
PREFIX f: <http://f/>
CONSTRUCT { ?x f:friendOf ?y . }
WHERE { ?x f:knows ?y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormConstruct {
		t.Fatalf("form = %v", q.Form)
	}
	if len(q.Template) != 1 || q.Template[0].P != rdf.NewIRI("http://f/friendOf") {
		t.Errorf("template = %v", q.Template)
	}
}

func TestParseDescribe(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/> DESCRIBE f:alice`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Form != FormDescribe || len(q.DescribeTerms) != 1 {
		t.Errorf("describe = %v %v", q.Form, q.DescribeTerms)
	}
	q2, err := Parse(`PREFIX f: <http://f/> DESCRIBE ?x WHERE { ?x f:knows f:bob . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Where == nil {
		t.Error("describe with WHERE lost the pattern")
	}
}

func TestParseSelectStarDistinctLimitOffset(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/>
SELECT DISTINCT * WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || !q.Distinct {
		t.Error("star/distinct flags wrong")
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
}

func TestParseReduced(t *testing.T) {
	q, err := Parse(`SELECT REDUCED ?s WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Reduced || q.Distinct {
		t.Error("REDUCED flag wrong")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x ?p ?v . FILTER(?v > 1 + 2 * 3 && ?v < 100 || bound(?x)) }`)
	if err != nil {
		t.Fatal(err)
	}
	g := q.Where.(*Group)
	f := g.Elems[1].(*Filter)
	or, ok := f.Expr.(*ExprOr)
	if !ok {
		t.Fatalf("top = %T, want *ExprOr", f.Expr)
	}
	and, ok := or.Left.(*ExprAnd)
	if !ok {
		t.Fatalf("or.left = %T, want *ExprAnd", or.Left)
	}
	cmp, ok := and.Left.(*ExprCmp)
	if !ok || cmp.Op != CmpGt {
		t.Fatalf("and.left = %v", and.Left)
	}
	add, ok := cmp.Right.(*ExprArith)
	if !ok || add.Op != ArithAdd {
		t.Fatalf("cmp.right = %v", cmp.Right)
	}
	if mul, ok := add.Right.(*ExprArith); !ok || mul.Op != ArithMul {
		t.Fatalf("mul did not bind tighter than add: %v", add.Right)
	}
	if call, ok := or.Right.(*ExprCall); !ok || call.Name != "BOUND" {
		t.Fatalf("or.right = %v", or.Right)
	}
}

func TestParseTypedAndLangLiterals(t *testing.T) {
	q, err := Parse(`PREFIX x: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE { ?s <http://p> "5"^^x:integer . ?s <http://q> "hi"@en . ?s <http://r> 2.5 . ?s <http://t> true . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.(*BGP)
	if bgp.Patterns[0].O != rdf.NewTypedLiteral("5", rdf.XSDInteger) {
		t.Errorf("typed literal = %v", bgp.Patterns[0].O)
	}
	if bgp.Patterns[1].O != rdf.NewLangLiteral("hi", "en") {
		t.Errorf("lang literal = %v", bgp.Patterns[1].O)
	}
	if bgp.Patterns[2].O != rdf.NewTypedLiteral("2.5", rdf.XSDDecimal) {
		t.Errorf("decimal literal = %v", bgp.Patterns[2].O)
	}
	if bgp.Patterns[3].O != rdf.NewBoolean(true) {
		t.Errorf("boolean literal = %v", bgp.Patterns[3].O)
	}
}

func TestParseAKeyword(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/> SELECT ?x WHERE { ?x a f:Person . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.(*BGP)
	if bgp.Patterns[0].P != rdf.NewIRI(rdf.RDFType) {
		t.Errorf("'a' predicate = %v", bgp.Patterns[0].P)
	}
}

func TestParseBlankNode(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { _:b <http://p> ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.(*BGP)
	if bgp.Patterns[0].S != rdf.NewBlank("b") {
		t.Errorf("blank subject = %v", bgp.Patterns[0].S)
	}
}

func TestParseBase(t *testing.T) {
	q, err := Parse(`BASE <http://example.org/> SELECT ?x WHERE { ?x <p/q> <http://abs/o> . }`)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.(*BGP)
	if bgp.Patterns[0].P != rdf.NewIRI("http://example.org/p/q") {
		t.Errorf("relative IRI = %v", bgp.Patterns[0].P)
	}
	if bgp.Patterns[0].O != rdf.NewIRI("http://abs/o") {
		t.Errorf("absolute IRI = %v", bgp.Patterns[0].O)
	}
}

func TestParseFromNamed(t *testing.T) {
	q, err := Parse(`SELECT ?x FROM <http://g1> FROM NAMED <http://g2> WHERE { ?x ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 1 || q.From[0] != "http://g1" {
		t.Errorf("FROM = %v", q.From)
	}
	if len(q.FromNamed) != 1 || q.FromNamed[0] != "http://g2" {
		t.Errorf("FROM NAMED = %v", q.FromNamed)
	}
}

func TestParseNestedUnions(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/>
SELECT ?x WHERE { { ?x f:a f:b . } UNION { ?x f:c f:d . } UNION { ?x f:e f:f . } }`)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := q.Where.(*Union)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	// left-associative: (A UNION B) UNION C
	if _, ok := u.Left.(*Union); !ok {
		t.Errorf("UNION should be left-associative, left = %T", u.Left)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"empty":              ``,
		"no where":           `SELECT ?x`,
		"unknown prefix":     `SELECT ?x WHERE { ?x undeclared:p ?y . }`,
		"bad projection":     `SELECT ?nope WHERE { ?x ?p ?o . }`,
		"unterminated group": `SELECT ?x WHERE { ?x ?p ?o .`,
		"unterminated str":   `SELECT ?x WHERE { ?x ?p "abc . }`,
		"trailing garbage":   `SELECT ?x WHERE { ?x ?p ?o . } garbage`,
		"bad builtin":        `SELECT ?x WHERE { ?x ?p ?o . FILTER nosuch(?x) }`,
		"regex arity":        `SELECT ?x WHERE { ?x ?p ?o . FILTER regex(?x) }`,
		"bad limit":          `SELECT ?x WHERE { ?x ?p ?o . } LIMIT abc`,
		"select no vars":     `SELECT WHERE { ?x ?p ?o . }`,
		"lone ampersand":     `SELECT ?x WHERE { ?x ?p ?o . FILTER(?x & ?x) }`,
		"empty var":          `SELECT ? WHERE { ?x ?p ?o . }`,
		// a \u escape is exactly 4 hex digits, \U exactly 8, naming a
		// Unicode scalar value
		"short unicode escape": `SELECT ?x WHERE { ?x ?p "a\u12zzb" . }`,
		"surrogate escape":     `SELECT ?x WHERE { ?x ?p "\uD800" . }`,
		"escape past U+10FFFF": `SELECT ?x WHERE { ?x ?p "\U00110000" . }`,
		// LIMIT and OFFSET take an INTEGER only
		"decimal limit":  `SELECT ?x WHERE { ?x ?p ?o . } LIMIT 1.5`,
		"double limit":   `SELECT ?x WHERE { ?x ?p ?o . } LIMIT 2e3`,
		"decimal offset": `SELECT ?x WHERE { ?x ?p ?o . } OFFSET 1.5`,
		"double offset":  `SELECT ?x WHERE { ?x ?p ?o . } OFFSET 2e3`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("%s: error type %T, want *SyntaxError", name, err)
		}
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	for src, want := range map[string]string{
		`"\u00e9"`:       "\u00e9",
		`"\u00E9x"`:      "\u00e9x",
		`"a\U0001F600"`:  "a\U0001F600",
		`"\U0010FFFF"`:   "\U0010FFFF",
		`"\uD7FF\uE000"`: "\uD7FF\uE000",
	} {
		q, err := Parse(`SELECT ?x WHERE { ?x ?p ` + src + ` . }`)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if got := q.Where.(*BGP).Patterns[0].O.Value; got != want {
			t.Errorf("%s: literal %q, want %q", src, got, want)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("SELECT ?x\nWHERE { ?x ?p @@ }")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "sparql:") {
		t.Errorf("error message %q missing package prefix", se.Error())
	}
}

func TestGraphPatternVars(t *testing.T) {
	q, err := Parse(paperFig4)
	if err != nil {
		t.Fatal(err)
	}
	vars := q.Where.Vars()
	want := []string{"x", "name", "z", "y"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("vars[%d] = %q, want %q", i, vars[i], want[i])
		}
	}
}

func TestASTStringers(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/>
SELECT ?x WHERE { { ?x f:a ?y . OPTIONAL { ?y f:b ?z . } FILTER(?y != ?z) } UNION { ?x f:c f:d . } }`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	for _, want := range []string{"UNION", "OPTIONAL", "FILTER", "?x"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	q, err := Parse(`
# leading comment
SELECT ?x # trailing comment
WHERE {
  # inner comment
  ?x <http://p> ?y .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.(*BGP).Patterns) != 1 {
		t.Error("comment handling broke pattern parsing")
	}
}

func TestParseGraphPattern(t *testing.T) {
	q, err := Parse(`PREFIX f: <http://f/>
SELECT ?g ?x WHERE {
  GRAPH ?g { ?x f:knows ?y . }
  GRAPH <http://meta> { ?x f:verified true . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := q.Where.(*Group)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	gp1, ok := g.Elems[0].(*GraphPat)
	if !ok {
		t.Fatalf("elem 0 = %T", g.Elems[0])
	}
	if !gp1.Name.IsVar() || gp1.Name.Value != "g" {
		t.Errorf("graph name = %v", gp1.Name)
	}
	gp2, ok := g.Elems[1].(*GraphPat)
	if !ok {
		t.Fatalf("elem 1 = %T", g.Elems[1])
	}
	if gp2.Name != rdf.NewIRI("http://meta") {
		t.Errorf("graph name = %v", gp2.Name)
	}
	vars := q.Where.Vars()
	if vars[0] != "g" {
		t.Errorf("GRAPH var missing from Vars: %v", vars)
	}
}
