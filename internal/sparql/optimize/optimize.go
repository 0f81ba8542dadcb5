// Package optimize implements the SPARQL-algebra rewriting rules the paper
// builds on (Sect. II and IV-G, after Schmidt, Meier & Lausen, "Foundations
// of SPARQL query optimization"):
//
//   - filter decomposition and filter pushing — a conjunctive FILTER is
//     split into conjuncts and each conjunct is pushed to the deepest
//     operator whose variables cover it (Fig. 9's transformation of
//     Filter(C1, LeftJoin(BGP(P1.P2), BGP(P3), true)) into
//     LeftJoin(BGP(Filter(C1,P1).P2), BGP(P3), true));
//   - join reordering — AND is associative and commutative (Sect. IV-B),
//     so the triple patterns of a BGP may be evaluated in any order; the
//     greedy reorder picks the most selective pattern first and then grows
//     the join through shared variables, using a pluggable cardinality
//     estimator (locally graph statistics, distributed the location-table
//     frequency counts of Table I).
package optimize

import (
	"sort"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
)

// CardinalityEstimator predicts how many solutions a triple pattern yields.
// Implementations: local graph statistics, the distributed location-table
// frequencies, or the static heuristic below.
type CardinalityEstimator interface {
	EstimatePattern(p rdf.Triple) int
}

// HeuristicEstimator ranks patterns purely by which positions are bound,
// the classic variable-counting heuristic: more bound positions → more
// selective. It needs no statistics and is the default.
type HeuristicEstimator struct{}

// EstimatePattern implements CardinalityEstimator.
func (HeuristicEstimator) EstimatePattern(p rdf.Triple) int {
	switch m := p.Mask(); m {
	case rdf.BoundS | rdf.BoundP | rdf.BoundO:
		return 1
	case rdf.BoundS | rdf.BoundP, rdf.BoundS | rdf.BoundO:
		return 10
	case rdf.BoundP | rdf.BoundO:
		return 25
	case rdf.BoundS:
		return 100
	case rdf.BoundO:
		return 250
	case rdf.BoundP:
		return 2500
	default:
		return 100000
	}
}

// GraphEstimator estimates from an actual graph's match counts — exact but
// only available where the data is (at a storage node).
type GraphEstimator struct{ G *rdf.Graph }

// EstimatePattern implements CardinalityEstimator.
func (e GraphEstimator) EstimatePattern(p rdf.Triple) int {
	return e.G.CountMatch(p)
}

// Options selects which rewrites run.
type Options struct {
	// PushFilters enables filter decomposition and pushing.
	PushFilters bool
	// ReorderBGP enables selectivity-driven pattern reordering.
	ReorderBGP bool
	// Estimator supplies cardinalities for reordering; nil selects
	// HeuristicEstimator.
	Estimator CardinalityEstimator
}

// DefaultOptions enables every rewrite with the heuristic estimator.
func DefaultOptions() Options {
	return Options{PushFilters: true, ReorderBGP: true}
}

// Optimize rewrites the algebra expression according to opts. The input
// tree is not modified.
func Optimize(op algebra.Op, opts Options) algebra.Op {
	if opts.Estimator == nil {
		opts.Estimator = HeuristicEstimator{}
	}
	out := clone(op)
	if opts.PushFilters {
		out = pushFilters(out)
	}
	if opts.ReorderBGP {
		out = reorderBGPs(out, opts.Estimator)
	}
	return out
}

// clone deep-copies an operator tree.
func clone(op algebra.Op) algebra.Op {
	switch o := op.(type) {
	case *algebra.BGP:
		return &algebra.BGP{Patterns: append([]rdf.Triple(nil), o.Patterns...)}
	case *algebra.Join:
		return &algebra.Join{Left: clone(o.Left), Right: clone(o.Right)}
	case *algebra.LeftJoin:
		return &algebra.LeftJoin{Left: clone(o.Left), Right: clone(o.Right), Expr: o.Expr}
	case *algebra.Union:
		return &algebra.Union{Left: clone(o.Left), Right: clone(o.Right)}
	case *algebra.Filter:
		return &algebra.Filter{Expr: o.Expr, Input: clone(o.Input)}
	case *algebra.Graph:
		return &algebra.Graph{Name: o.Name, Input: clone(o.Input)}
	case *algebra.Project:
		return &algebra.Project{Names: append([]string(nil), o.Names...), Input: clone(o.Input)}
	case *algebra.Distinct:
		return &algebra.Distinct{Input: clone(o.Input)}
	case *algebra.Reduced:
		return &algebra.Reduced{Input: clone(o.Input)}
	case *algebra.OrderBy:
		return &algebra.OrderBy{Conds: append([]sparql.OrderCond(nil), o.Conds...), Input: clone(o.Input)}
	case *algebra.Slice:
		return &algebra.Slice{Offset: o.Offset, Limit: o.Limit, Input: clone(o.Input)}
	default:
		return op
	}
}

// pushFilters decomposes conjunctive filters and pushes each conjunct as
// deep as its variable scope allows.
func pushFilters(op algebra.Op) algebra.Op {
	switch o := op.(type) {
	case *algebra.Filter:
		input := pushFilters(o.Input)
		conjuncts := SplitConjuncts(o.Expr)
		var remaining []sparql.Expression
		for _, c := range conjuncts {
			pushed, ok := tryPush(input, c)
			if ok {
				input = pushed
			} else {
				remaining = append(remaining, c)
			}
		}
		return wrapFilters(input, remaining)
	case *algebra.Join:
		return &algebra.Join{Left: pushFilters(o.Left), Right: pushFilters(o.Right)}
	case *algebra.LeftJoin:
		return &algebra.LeftJoin{Left: pushFilters(o.Left), Right: pushFilters(o.Right), Expr: o.Expr}
	case *algebra.Union:
		return &algebra.Union{Left: pushFilters(o.Left), Right: pushFilters(o.Right)}
	case *algebra.Graph:
		return &algebra.Graph{Name: o.Name, Input: pushFilters(o.Input)}
	case *algebra.Project:
		return &algebra.Project{Names: o.Names, Input: pushFilters(o.Input)}
	case *algebra.Distinct:
		return &algebra.Distinct{Input: pushFilters(o.Input)}
	case *algebra.Reduced:
		return &algebra.Reduced{Input: pushFilters(o.Input)}
	case *algebra.OrderBy:
		return &algebra.OrderBy{Conds: o.Conds, Input: pushFilters(o.Input)}
	case *algebra.Slice:
		return &algebra.Slice{Offset: o.Offset, Limit: o.Limit, Input: pushFilters(o.Input)}
	default:
		return op
	}
}

// tryPush attempts to push one filter conjunct below op. It reports false
// when the filter must stay at this level.
func tryPush(op algebra.Op, cond sparql.Expression) (algebra.Op, bool) {
	need := cond.Vars()
	switch o := op.(type) {
	case *algebra.Join:
		// Push into whichever side covers the variables; both if both do
		// (legal since Join is intersection-like on shared vars, and the
		// filter is idempotent).
		lOK := Covers(o.Left.Vars(), need)
		rOK := Covers(o.Right.Vars(), need)
		if lOK && rOK {
			l, _ := pushOrWrap(o.Left, cond)
			r, _ := pushOrWrap(o.Right, cond)
			return &algebra.Join{Left: l, Right: r}, true
		}
		if lOK {
			l, _ := pushOrWrap(o.Left, cond)
			return &algebra.Join{Left: l, Right: o.Right}, true
		}
		if rOK {
			r, _ := pushOrWrap(o.Right, cond)
			return &algebra.Join{Left: o.Left, Right: r}, true
		}
		return op, false
	case *algebra.LeftJoin:
		// Only the mandatory (left) side preserves semantics: pushing into
		// the optional side would turn "no match" into "match rejected".
		if Covers(o.Left.Vars(), need) {
			l, _ := pushOrWrap(o.Left, cond)
			return &algebra.LeftJoin{Left: l, Right: o.Right, Expr: o.Expr}, true
		}
		return op, false
	case *algebra.Union:
		// Filter distributes over Union when each branch covers the
		// variables. A branch not covering them would change semantics
		// (the filter could still pass via unbound-variable errors), so
		// require both.
		if Covers(o.Left.Vars(), need) && Covers(o.Right.Vars(), need) {
			l, _ := pushOrWrap(o.Left, cond)
			r, _ := pushOrWrap(o.Right, cond)
			return &algebra.Union{Left: l, Right: r}, true
		}
		return op, false
	case *algebra.Filter:
		inner, ok := tryPush(o.Input, cond)
		if ok {
			return &algebra.Filter{Expr: o.Expr, Input: inner}, true
		}
		return op, false
	default:
		return op, false
	}
}

// pushOrWrap pushes the condition into op if possible, else wraps op in a
// Filter. The boolean result is always true.
func pushOrWrap(op algebra.Op, cond sparql.Expression) (algebra.Op, bool) {
	if pushed, ok := tryPush(op, cond); ok {
		return pushed, true
	}
	return &algebra.Filter{Expr: cond, Input: op}, true
}

func wrapFilters(op algebra.Op, conds []sparql.Expression) algebra.Op {
	if len(conds) == 0 {
		return op
	}
	expr := conds[0]
	for _, c := range conds[1:] {
		expr = &sparql.ExprAnd{Left: expr, Right: c}
	}
	return &algebra.Filter{Expr: expr, Input: op}
}

// SplitConjuncts flattens nested ExprAnd trees into a conjunct list; a nil
// expression has no conjuncts.
func SplitConjuncts(e sparql.Expression) []sparql.Expression {
	if e == nil {
		return nil
	}
	if and, ok := e.(*sparql.ExprAnd); ok {
		return append(SplitConjuncts(and.Left), SplitConjuncts(and.Right)...)
	}
	return []sparql.Expression{e}
}

// Covers reports whether every variable in need is among have — whether a
// filter over need can be evaluated on solutions that bind have.
func Covers(have, need []string) bool {
	if len(need) == 0 {
		return true
	}
	set := make(map[string]bool, len(have))
	for _, v := range have {
		set[v] = true
	}
	for _, v := range need {
		if !set[v] {
			return false
		}
	}
	return true
}

// reorderBGPs applies ReorderPatterns to every BGP in the tree.
func reorderBGPs(op algebra.Op, est CardinalityEstimator) algebra.Op {
	switch o := op.(type) {
	case *algebra.BGP:
		return &algebra.BGP{Patterns: ReorderPatterns(o.Patterns, est)}
	case *algebra.Join:
		return &algebra.Join{Left: reorderBGPs(o.Left, est), Right: reorderBGPs(o.Right, est)}
	case *algebra.LeftJoin:
		return &algebra.LeftJoin{Left: reorderBGPs(o.Left, est), Right: reorderBGPs(o.Right, est), Expr: o.Expr}
	case *algebra.Union:
		return &algebra.Union{Left: reorderBGPs(o.Left, est), Right: reorderBGPs(o.Right, est)}
	case *algebra.Graph:
		return &algebra.Graph{Name: o.Name, Input: reorderBGPs(o.Input, est)}
	case *algebra.Filter:
		return &algebra.Filter{Expr: o.Expr, Input: reorderBGPs(o.Input, est)}
	case *algebra.Project:
		return &algebra.Project{Names: o.Names, Input: reorderBGPs(o.Input, est)}
	case *algebra.Distinct:
		return &algebra.Distinct{Input: reorderBGPs(o.Input, est)}
	case *algebra.Reduced:
		return &algebra.Reduced{Input: reorderBGPs(o.Input, est)}
	case *algebra.OrderBy:
		return &algebra.OrderBy{Conds: o.Conds, Input: reorderBGPs(o.Input, est)}
	case *algebra.Slice:
		return &algebra.Slice{Offset: o.Offset, Limit: o.Limit, Input: reorderBGPs(o.Input, est)}
	default:
		return op
	}
}

// ReorderPatterns orders the triple patterns of a BGP greedily: start with
// the smallest estimated cardinality, then repeatedly append the cheapest
// pattern that shares a variable with those already placed (keeping the
// join connected and avoiding Cartesian products); when none is connected,
// fall back to the globally cheapest remaining pattern.
//
// The full search space is n! orders (as the paper notes for execution-node
// sequences in Sect. IV-D); the greedy heuristic is O(n²).
func ReorderPatterns(patterns []rdf.Triple, est CardinalityEstimator) []rdf.Triple {
	if len(patterns) <= 1 {
		return append([]rdf.Triple(nil), patterns...)
	}
	if est == nil {
		est = HeuristicEstimator{}
	}
	type cand struct {
		pat  rdf.Triple
		cost int
		idx  int
	}
	remaining := make([]cand, len(patterns))
	for i, p := range patterns {
		remaining[i] = cand{pat: p, cost: est.EstimatePattern(p), idx: i}
	}
	// stable start: cheapest first, ties by original position
	sort.SliceStable(remaining, func(i, j int) bool {
		if remaining[i].cost != remaining[j].cost {
			return remaining[i].cost < remaining[j].cost
		}
		return remaining[i].idx < remaining[j].idx
	})
	out := []rdf.Triple{remaining[0].pat}
	bound := map[string]bool{}
	for _, v := range remaining[0].pat.Vars() {
		bound[v] = true
	}
	remaining = remaining[1:]
	for len(remaining) > 0 {
		best := -1
		bestConnected := false
		for i, c := range remaining {
			connected := sharesVar(c.pat, bound)
			switch {
			case best == -1,
				connected && !bestConnected,
				connected == bestConnected && c.cost < remaining[best].cost:
				best = i
				bestConnected = connected
			}
		}
		chosen := remaining[best]
		out = append(out, chosen.pat)
		for _, v := range chosen.pat.Vars() {
			bound[v] = true
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

func sharesVar(p rdf.Triple, bound map[string]bool) bool {
	for _, v := range p.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}
