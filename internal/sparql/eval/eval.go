package eval

import (
	"fmt"
	"sort"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
)

// Dataset is an RDF dataset: a default graph plus named graphs, the
// structure the paper's Sect. IV-A dataset clauses select over.
type Dataset struct {
	Default *rdf.Graph
	Named   map[string]*rdf.Graph
}

// GraphNames returns the sorted named-graph IRIs.
func (ds *Dataset) GraphNames() []string {
	out := make([]string, 0, len(ds.Named))
	for n := range ds.Named {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates an algebra expression over a graph and returns the
// solution multiset. This is the local-execution component of the Fig. 3
// workflow: every storage node runs it over its own repository.
func Eval(op algebra.Op, g *rdf.Graph) (Solutions, error) {
	return EvalDataset(op, &Dataset{Default: g})
}

// EvalDataset evaluates an algebra expression over a full dataset,
// supporting GRAPH patterns over the named graphs.
func EvalDataset(op algebra.Op, ds *Dataset) (Solutions, error) {
	cur := ds.Default
	if cur == nil {
		cur = rdf.NewGraph()
	}
	return evalIn(op, ds, cur)
}

// evalIn evaluates op with cur as the active graph (the default graph, or
// the named graph selected by an enclosing GRAPH pattern).
func evalIn(op algebra.Op, ds *Dataset, cur *rdf.Graph) (Solutions, error) {
	g := cur
	switch o := op.(type) {
	case *algebra.BGP:
		return EvalBGP(g, o.Patterns, Solutions{NewBinding()}), nil
	case *algebra.Graph:
		return evalGraph(o, ds)
	case *algebra.Join:
		l, err := evalIn(o.Left, ds, cur)
		if err != nil {
			return nil, err
		}
		r, err := evalIn(o.Right, ds, cur)
		if err != nil {
			return nil, err
		}
		return Join(l, r), nil
	case *algebra.LeftJoin:
		l, err := evalIn(o.Left, ds, cur)
		if err != nil {
			return nil, err
		}
		r, err := evalIn(o.Right, ds, cur)
		if err != nil {
			return nil, err
		}
		return LeftJoinFilter(l, r, o.Expr), nil
	case *algebra.Union:
		l, err := evalIn(o.Left, ds, cur)
		if err != nil {
			return nil, err
		}
		r, err := evalIn(o.Right, ds, cur)
		if err != nil {
			return nil, err
		}
		return Union(l, r), nil
	case *algebra.Filter:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return FilterSolutions(in, o.Expr), nil
	case *algebra.Project:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return Project(in, o.Names), nil
	case *algebra.Distinct:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return Distinct(in), nil
	case *algebra.Reduced:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return Reduced(in), nil
	case *algebra.OrderBy:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return Order(in, o.Conds), nil
	case *algebra.Slice:
		in, err := evalIn(o.Input, ds, cur)
		if err != nil {
			return nil, err
		}
		return Slice(in, o.Offset, o.Limit), nil
	default:
		return nil, fmt.Errorf("eval: unsupported operator %T", op)
	}
}

// evalGraph evaluates GRAPH name { P }: with a constant IRI the inner
// pattern runs over that named graph; with a variable it runs over every
// named graph, binding the variable to the graph's IRI.
func evalGraph(o *algebra.Graph, ds *Dataset) (Solutions, error) {
	if !o.Name.IsVar() {
		g := ds.Named[o.Name.Value]
		if g == nil {
			return nil, nil
		}
		return evalIn(o.Input, ds, g)
	}
	varName := o.Name.Value
	var out Solutions
	for _, iri := range ds.GraphNames() {
		sols, err := evalIn(o.Input, ds, ds.Named[iri])
		if err != nil {
			return nil, err
		}
		gTerm := rdf.NewIRI(iri)
		for _, b := range sols {
			if old, bound := b[varName]; bound {
				if old != gTerm {
					continue
				}
				out = append(out, b)
				continue
			}
			nb := b.Clone()
			nb[varName] = gTerm
			out = append(out, nb)
		}
	}
	return out, nil
}

// LeftJoinFilter implements LeftJoin(Ω1, Ω2, expr) per the SPARQL algebra,
// the semantics of OPTIONAL (Sect. IV-E): compatible merges that satisfy
// expr, plus Ω1 mappings with no compatible (and satisfying) counterpart.
// With a condition an unmatched mapping stays at its own position; without
// one, Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), they follow the merges.
func LeftJoinFilter(a, b Solutions, expr sparql.Expression) Solutions {
	ix := newJoinIndex(a, b)
	var out, unmatched Solutions
	var hits []int
	for _, x := range a {
		matched := false
		hits = ix.compatible(x, hits)
		for _, i := range hits {
			if m := x.Merge(b[i]); expr == nil || Satisfies(expr, m) {
				out = append(out, m)
				matched = true
			}
		}
		if matched {
			continue
		}
		if expr == nil {
			unmatched = append(unmatched, x)
		} else {
			out = append(out, x)
		}
	}
	return append(out, unmatched...)
}

// FilterSolutions keeps mappings satisfying the condition.
func FilterSolutions(s Solutions, expr sparql.Expression) Solutions {
	if expr == nil {
		return s
	}
	var out Solutions
	for _, b := range s {
		if Satisfies(expr, b) {
			out = append(out, b)
		}
	}
	return out
}

// EvalBGP matches the basic graph pattern against the graph by index
// nested-loop evaluation: each seed binding is extended pattern by pattern,
// substituting already-bound variables before probing the graph indexes.
// Passing seeds other than the unit binding implements the paper's
// in-network aggregation, where partial solutions from upstream nodes
// constrain the local match.
func EvalBGP(g *rdf.Graph, patterns []rdf.Triple, seeds Solutions) Solutions {
	if len(patterns) == 0 {
		return seeds
	}
	// The collector closure is hoisted out of the loops and fed through
	// captured variables: allocating it per binding (the natural inline
	// form) costs one heap closure per seed per pattern on the match hot
	// path.
	var (
		next  Solutions
		b     Binding
		bound rdf.Triple
	)
	collect := func(t rdf.Triple) bool {
		nb, ok := extend(b, bound, t)
		if ok {
			next = append(next, nb)
		}
		return true
	}
	cur := seeds
	for _, pat := range patterns {
		next = nil
		for _, cb := range cur {
			b = cb
			bound = Substitute(pat, b)
			g.ForEachMatch(bound, collect)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// MatchPattern evaluates a single triple pattern with the unit seed — the
// primitive-query building block (Sect. IV-C).
func MatchPattern(g *rdf.Graph, pattern rdf.Triple) Solutions {
	return EvalBGP(g, []rdf.Triple{pattern}, Solutions{NewBinding()})
}

// Substitute replaces variables of pat that are bound in b with their
// values.
func Substitute(pat rdf.Triple, b Binding) rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if v, ok := b[t.Value]; ok {
				return v
			}
		}
		return t
	}
	return rdf.Triple{S: sub(pat.S), P: sub(pat.P), O: sub(pat.O)}
}

// extend augments binding b with the variable assignments implied by
// matching the (partially substituted) pattern against triple t. It
// reports false when the same variable would be assigned two different
// terms (e.g. pattern ?x p ?x against s p o with s != o), which it decides
// before allocating the extended mapping.
func extend(b Binding, pat rdf.Triple, t rdf.Triple) (Binding, bool) {
	ps := [3]rdf.Term{pat.S, pat.P, pat.O}
	vs := [3]rdf.Term{t.S, t.P, t.O}
	fresh := 0
	for i, p := range ps {
		if !p.IsVar() {
			continue
		}
		old, bound := b[p.Value]
		for j := 0; j < i && !bound; j++ { // an earlier position of the same variable
			if ps[j].IsVar() && ps[j].Value == p.Value {
				old, bound = vs[j], true
			}
		}
		if !bound {
			fresh++
		} else if old != vs[i] {
			return nil, false
		}
	}
	nb := make(Binding, len(b)+fresh)
	for k, v := range b {
		nb[k] = v
	}
	for i, p := range ps {
		if p.IsVar() {
			nb[p.Value] = vs[i]
		}
	}
	return nb, true
}

// Order sorts the solution sequence by the ORDER BY conditions. Unbound
// variables and evaluation errors sort first, matching the SPARQL ordering
// extension for unbound values. Ties keep their input order. Solutions are
// immutable, so the result shares s's mappings.
func Order(s Solutions, conds []sparql.OrderCond) Solutions {
	out := make(Solutions, len(s))
	for k, i := range orderRows(conds, len(s), func(i int) Binding { return s[i] }) {
		out[k] = s[i]
	}
	return out
}

// orderRows returns the row numbers 0..n-1 in ORDER BY order. row(i) is row
// i's mapping, which need not outlive the call: each row's keys are
// evaluated once, not at every comparison.
func orderRows(conds []sparql.OrderCond, n int, row func(int) Binding) []int {
	w := len(conds)
	vals, failed := make([]rdf.Term, n*w), make([]bool, n*w)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		b := row(i)
		for c, cond := range conds {
			v, err := EvalExpr(cond.Expr, b)
			vals[i*w+c], failed[i*w+c] = v.Term, err != nil
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a]*w, order[b]*w
		for c, cond := range conds {
			var cmp int
			switch {
			case failed[i+c] && failed[j+c]:
			case failed[i+c]:
				cmp = -1
			case failed[j+c]:
				cmp = 1
			default:
				cmp = rdf.Compare(vals[i+c], vals[j+c])
			}
			if cond.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return order
}

// Construct instantiates a CONSTRUCT template against the rows of t and
// returns the resulting (deduplicated) triples; template triples with
// unbound variables are skipped per the SPARQL semantics.
func Construct(template []rdf.Triple, t Table) []rdf.Triple {
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	as := scratchRow(t.Vars, t.terms())
	for i := 0; i < t.N; i++ {
		b := as(t.row(i))
		for _, pat := range template {
			tr := Substitute(pat, b)
			if !tr.IsConcrete() || seen[tr] {
				continue
			}
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}
