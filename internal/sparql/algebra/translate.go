package algebra

import (
	"fmt"

	"adhocshare/internal/sparql"
)

// Translate converts a parsed query's WHERE clause into a SPARQL algebra
// expression and wraps it with the solution-sequence modifiers of the query
// form (Order, Projection, Distinct/Reduced, Slice), in the order mandated
// by the W3C translation: pattern → OrderBy → Project → Distinct/Reduced →
// Slice.
func Translate(q *sparql.Query) (Op, error) {
	if q.Where == nil {
		return nil, fmt.Errorf("algebra: query has no WHERE clause")
	}
	op, err := translatePattern(q.Where)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		op = &OrderBy{Conds: q.OrderBy, Input: op}
	}
	switch q.Form {
	case sparql.FormSelect:
		if q.Star {
			op = &Project{Names: op.Vars(), Input: op}
		} else {
			op = &Project{Names: append([]string(nil), q.SelectVars...), Input: op}
		}
		if q.Distinct {
			op = &Distinct{Input: op}
		} else if q.Reduced {
			op = &Reduced{Input: op}
		}
	case sparql.FormAsk:
		// ASK needs no projection; the evaluator checks non-emptiness.
	case sparql.FormConstruct:
		op = &Project{Names: templateVars(q), Input: op}
	case sparql.FormDescribe:
		// DESCRIBE projects the variables among the describe terms.
		var names []string
		for _, t := range q.DescribeTerms {
			if t.IsVar() {
				names = append(names, t.Value)
			}
		}
		if q.Star {
			names = op.Vars()
		}
		op = &Project{Names: names, Input: op}
		op = &Distinct{Input: op}
	}
	if q.Limit >= 0 || q.Offset >= 0 {
		op = &Slice{Offset: q.Offset, Limit: q.Limit, Input: op}
	}
	return op, nil
}

func templateVars(q *sparql.Query) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range q.Template {
		for _, v := range t.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// translatePattern converts a single graph-pattern AST node to algebra.
func translatePattern(gp sparql.GraphPattern) (Op, error) {
	switch p := gp.(type) {
	case *sparql.BGP:
		return &BGP{Patterns: p.Patterns}, nil
	case *sparql.Union:
		l, err := translatePattern(p.Left)
		if err != nil {
			return nil, err
		}
		r, err := translatePattern(p.Right)
		if err != nil {
			return nil, err
		}
		return &Union{Left: l, Right: r}, nil
	case *sparql.Group:
		return translateGroup(p)
	case *sparql.Optional:
		// A bare OPTIONAL (outside a group) left-joins against the unit
		// pattern; normal queries reach Optional via translateGroup.
		inner, expr, err := translateOptional(p)
		if err != nil {
			return nil, err
		}
		return &LeftJoin{Left: &BGP{}, Right: inner, Expr: expr}, nil
	case *sparql.Filter:
		return &Filter{Expr: p.Expr, Input: &BGP{}}, nil
	case *sparql.GraphPat:
		inner, err := translatePattern(p.Pattern)
		if err != nil {
			return nil, err
		}
		return &Graph{Name: p.Name, Input: inner}, nil
	default:
		return nil, fmt.Errorf("algebra: unsupported graph pattern %T", gp)
	}
}

// translateGroup applies the W3C group translation: elements are folded
// left to right, OPTIONAL becomes a LeftJoin against the group built so
// far, and FILTERs are collected and applied to the whole group.
func translateGroup(g *sparql.Group) (Op, error) {
	var acc Op = &BGP{} // unit: the empty BGP joins as identity
	var filters []sparql.Expression
	for _, e := range g.Elems {
		switch el := e.(type) {
		case *sparql.Filter:
			filters = append(filters, el.Expr)
		case *sparql.Optional:
			inner, expr, err := translateOptional(el)
			if err != nil {
				return nil, err
			}
			acc = &LeftJoin{Left: acc, Right: inner, Expr: expr}
		default:
			op, err := translatePattern(e)
			if err != nil {
				return nil, err
			}
			acc = join(acc, op)
		}
	}
	acc = simplify(acc)
	for i, f := range filters {
		if i == 0 {
			acc = &Filter{Expr: f, Input: acc}
			continue
		}
		// conjoin multiple FILTER clauses into one condition
		prev := acc.(*Filter)
		prev.Expr = &sparql.ExprAnd{Left: prev.Expr, Right: f}
	}
	return acc, nil
}

// translateOptional translates the body of an OPTIONAL. Per the W3C rules,
// if the optional group is Filter(F, A) the filter expression becomes the
// LeftJoin condition; otherwise the condition is true (nil).
func translateOptional(o *sparql.Optional) (Op, sparql.Expression, error) {
	inner, err := translatePattern(o.Pattern)
	if err != nil {
		return nil, nil, err
	}
	if f, ok := inner.(*Filter); ok {
		return f.Input, f.Expr, nil
	}
	return inner, nil, nil
}

// join combines two operators, treating the empty BGP as the identity
// element. Adjacent triple patterns inside one group already form a single
// BGP at parse time; explicitly braced sub-groups stay as a Join so that
// structural rewrites (filter pushing, join-site selection) can address
// each operand — merging them would also be sound, since a Join of BGPs
// equals the BGP of the concatenated pattern lists (Sect. IV-B).
func join(l, r Op) Op {
	if isUnit(l) {
		return r
	}
	if isUnit(r) {
		return l
	}
	return &Join{Left: l, Right: r}
}

func isUnit(op Op) bool {
	b, ok := op.(*BGP)
	return ok && len(b.Patterns) == 0
}

// simplify removes residual unit BGPs introduced by the fold.
func simplify(op Op) Op {
	switch o := op.(type) {
	case *Join:
		o.Left = simplify(o.Left)
		o.Right = simplify(o.Right)
		if isUnit(o.Left) {
			return o.Right
		}
		if isUnit(o.Right) {
			return o.Left
		}
		return o
	case *LeftJoin:
		o.Left = simplify(o.Left)
		o.Right = simplify(o.Right)
		return o
	case *Union:
		o.Left = simplify(o.Left)
		o.Right = simplify(o.Right)
		return o
	case *Filter:
		o.Input = simplify(o.Input)
		return o
	default:
		return op
	}
}
