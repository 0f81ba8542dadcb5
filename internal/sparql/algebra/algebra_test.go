package algebra

import (
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

func v(s string) rdf.Term   { return rdf.NewVar(s) }
func iri(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }

func pat(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }

func TestOpChildren(t *testing.T) {
	bgp1 := &BGP{Patterns: []rdf.Triple{pat(v("x"), iri("p"), v("y"))}}
	bgp2 := &BGP{Patterns: []rdf.Triple{pat(v("y"), iri("q"), v("z"))}}
	expr := &sparql.ExprVar{Name: "x"}
	ops := []struct {
		op       Op
		children int
	}{
		{bgp1, 0},
		{&Join{Left: bgp1, Right: bgp2}, 2},
		{&LeftJoin{Left: bgp1, Right: bgp2}, 2},
		{&Union{Left: bgp1, Right: bgp2}, 2},
		{&Filter{Expr: expr, Input: bgp1}, 1},
		{&Project{Names: []string{"x"}, Input: bgp1}, 1},
		{&Distinct{Input: bgp1}, 1},
		{&Reduced{Input: bgp1}, 1},
		{&OrderBy{Conds: []sparql.OrderCond{{Expr: expr}}, Input: bgp1}, 1},
		{&Slice{Offset: 1, Limit: 2, Input: bgp1}, 1},
	}
	for _, c := range ops {
		if got := len(c.op.Children()); got != c.children {
			t.Errorf("%T children = %d, want %d", c.op, got, c.children)
		}
		if c.op.String() == "" {
			t.Errorf("%T has empty String()", c.op)
		}
	}
}

func TestOpVars(t *testing.T) {
	bgp1 := &BGP{Patterns: []rdf.Triple{pat(v("x"), iri("p"), v("y"))}}
	bgp2 := &BGP{Patterns: []rdf.Triple{pat(v("y"), iri("q"), v("z"))}}
	cases := []struct {
		op   Op
		want []string
	}{
		{bgp1, []string{"x", "y"}},
		{&Join{Left: bgp1, Right: bgp2}, []string{"x", "y", "z"}},
		{&LeftJoin{Left: bgp1, Right: bgp2}, []string{"x", "y", "z"}},
		{&Union{Left: bgp1, Right: bgp2}, []string{"x", "y", "z"}},
		{&Filter{Expr: &sparql.ExprVar{Name: "x"}, Input: bgp1}, []string{"x", "y"}},
		{&Project{Names: []string{"x"}, Input: bgp1}, []string{"x"}},
		{&Distinct{Input: bgp2}, []string{"y", "z"}},
		{&Reduced{Input: bgp2}, []string{"y", "z"}},
		{&OrderBy{Input: bgp1}, []string{"x", "y"}},
		{&Slice{Input: bgp1}, []string{"x", "y"}},
	}
	for _, c := range cases {
		got := c.op.Vars()
		if len(got) != len(c.want) {
			t.Errorf("%T vars = %v, want %v", c.op, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%T vars = %v, want %v", c.op, got, c.want)
				break
			}
		}
	}
}

func TestStringRendersPaperNotation(t *testing.T) {
	// Fig. 9's transformed form: Filter(C1, LeftJoin(BGP(P1.P2), BGP(P3), true))
	op := &Filter{
		Expr: &sparql.ExprCall{Name: "REGEX", Args: []sparql.Expression{
			&sparql.ExprVar{Name: "name"},
			&sparql.ExprTerm{Term: rdf.NewLiteral("Smith")},
		}},
		Input: &LeftJoin{
			Left: &BGP{Patterns: []rdf.Triple{
				pat(v("x"), iri("name"), v("name")),
				pat(v("x"), iri("kna"), v("y")),
			}},
			Right: &BGP{Patterns: []rdf.Triple{pat(v("y"), iri("knows"), v("z"))}},
		},
	}
	s := op.String()
	for _, want := range []string{"Filter(REGEX(?name", "LeftJoin(BGP(", ", true)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// explicit condition renders instead of true
	lj := &LeftJoin{
		Left:  &BGP{},
		Right: &BGP{},
		Expr:  &sparql.ExprVar{Name: "c"},
	}
	if !strings.Contains(lj.String(), "?c)") {
		t.Errorf("LeftJoin with condition = %q", lj.String())
	}
}

func TestOrderBySliceStrings(t *testing.T) {
	ob := &OrderBy{
		Conds: []sparql.OrderCond{
			{Expr: &sparql.ExprVar{Name: "a"}},
			{Expr: &sparql.ExprVar{Name: "b"}, Desc: true},
		},
		Input: &BGP{},
	}
	s := ob.String()
	if !strings.Contains(s, "ASC(?a)") || !strings.Contains(s, "DESC(?b)") {
		t.Errorf("OrderBy string = %q", s)
	}
	sl := &Slice{Offset: 3, Limit: 7, Input: &BGP{}}
	if !strings.Contains(sl.String(), "offset=3") || !strings.Contains(sl.String(), "limit=7") {
		t.Errorf("Slice string = %q", sl.String())
	}
}

func TestWalkVisitsEveryNode(t *testing.T) {
	op := &Distinct{Input: &Project{Names: []string{"x"}, Input: &Union{
		Left:  &Filter{Expr: &sparql.ExprVar{Name: "x"}, Input: &BGP{}},
		Right: &Join{Left: &BGP{}, Right: &BGP{}},
	}}}
	if got := CountOps(op); got != 8 {
		t.Errorf("CountOps = %d, want 8", got)
	}
	var order []string
	Walk(op, func(o Op) { order = append(order, strings.SplitN(o.String(), "(", 2)[0]) })
	if order[0] != "Distinct" || order[1] != "Project" {
		t.Errorf("pre-order broken: %v", order)
	}
	Walk(nil, func(Op) { t.Error("nil walk must not visit") })
}

func TestTranslateErrors(t *testing.T) {
	if _, err := Translate(&sparql.Query{}); err == nil {
		t.Error("nil WHERE should error")
	}
}

func TestTranslateBareOptionalAndFilter(t *testing.T) {
	// translatePattern handles degenerate standalone nodes
	opt := &sparql.Optional{Pattern: &sparql.BGP{Patterns: []rdf.Triple{pat(v("x"), iri("p"), v("y"))}}}
	op, err := translatePattern(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*LeftJoin); !ok {
		t.Errorf("bare optional = %T", op)
	}
	fl := &sparql.Filter{Expr: &sparql.ExprVar{Name: "x"}}
	op, err = translatePattern(fl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*Filter); !ok {
		t.Errorf("bare filter = %T", op)
	}
}
