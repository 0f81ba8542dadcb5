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
	"slices"
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
// tree is not modified: a pass builds a new node only where it rewrites,
// and a subtree it leaves alone comes back as the same pointer, so the
// result shares every unrewritten subtree with the input.
func Optimize(op algebra.Op, opts Options) algebra.Op {
	if opts.Estimator == nil {
		opts.Estimator = HeuristicEstimator{}
	}
	if opts.PushFilters {
		op = pushFilters(op)
	}
	if opts.ReorderBGP {
		op = reorderBGPs(op, opts.Estimator)
	}
	return op
}

// withChildren applies f to op's direct sub-operators and returns op
// itself when f changed none of them, else a copy of op over the new ones.
func withChildren(op algebra.Op, f func(algebra.Op) algebra.Op) algebra.Op {
	switch o := op.(type) {
	case *algebra.Join:
		if l, r := f(o.Left), f(o.Right); l != o.Left || r != o.Right {
			return &algebra.Join{Left: l, Right: r}
		}
	case *algebra.LeftJoin:
		if l, r := f(o.Left), f(o.Right); l != o.Left || r != o.Right {
			return &algebra.LeftJoin{Left: l, Right: r, Expr: o.Expr}
		}
	case *algebra.Union:
		if l, r := f(o.Left), f(o.Right); l != o.Left || r != o.Right {
			return &algebra.Union{Left: l, Right: r}
		}
	case *algebra.Filter:
		if in := f(o.Input); in != o.Input {
			return &algebra.Filter{Expr: o.Expr, Input: in}
		}
	case *algebra.Graph:
		if in := f(o.Input); in != o.Input {
			return &algebra.Graph{Name: o.Name, Input: in}
		}
	case *algebra.Project:
		if in := f(o.Input); in != o.Input {
			return &algebra.Project{Names: o.Names, Input: in}
		}
	case *algebra.Distinct:
		if in := f(o.Input); in != o.Input {
			return &algebra.Distinct{Input: in}
		}
	case *algebra.Reduced:
		if in := f(o.Input); in != o.Input {
			return &algebra.Reduced{Input: in}
		}
	case *algebra.OrderBy:
		if in := f(o.Input); in != o.Input {
			return &algebra.OrderBy{Conds: o.Conds, Input: in}
		}
	case *algebra.Slice:
		if in := f(o.Input); in != o.Input {
			return &algebra.Slice{Offset: o.Offset, Limit: o.Limit, Input: in}
		}
	}
	return op
}

// pushFilters decomposes conjunctive filters and pushes each conjunct as
// deep as its variable scope allows.
func pushFilters(op algebra.Op) algebra.Op {
	o, ok := op.(*algebra.Filter)
	if !ok {
		return withChildren(op, pushFilters)
	}
	input := pushFilters(o.Input)
	var remaining []sparql.Expression
	for _, c := range SplitConjuncts(o.Expr) {
		pushed, ok := tryPush(input, c)
		if ok {
			input = pushed
		} else {
			remaining = append(remaining, c)
		}
	}
	return wrapFilters(input, remaining)
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

// reorderBGPs applies ReorderPatterns to every BGP in the tree; a BGP
// already in the chosen order comes back as it is.
func reorderBGPs(op algebra.Op, est CardinalityEstimator) algebra.Op {
	o, ok := op.(*algebra.BGP)
	if !ok {
		return withChildren(op, func(in algebra.Op) algebra.Op { return reorderBGPs(in, est) })
	}
	if pats := ReorderPatterns(o.Patterns, est); !slices.Equal(pats, o.Patterns) {
		return &algebra.BGP{Patterns: pats}
	}
	return op
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
	var own [3]string
	for _, v := range remaining[0].pat.AppendVars(own[:0]) {
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
		for _, v := range chosen.pat.AppendVars(own[:0]) {
			bound[v] = true
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

func sharesVar(p rdf.Triple, bound map[string]bool) bool {
	var own [3]string
	for _, v := range p.AppendVars(own[:0]) {
		if bound[v] {
			return true
		}
	}
	return false
}
