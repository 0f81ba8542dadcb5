package main

import (
	"fmt"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/trace"
)

// Span names of the layer-by-layer replay, in pipeline order (Fig. 3).
const (
	spanReplay     = "replay"
	spanParse      = "sparql.parse"
	spanPlan       = "plan.translate_optimize"
	spanResolve    = "chord.resolve"
	spanLookup     = "overlay.lookup"
	spanLocalMatch = "storage.local_match"
	spanJoin       = "eval.join"
)

// replayer runs an op a second time, layer by layer, through the public
// function of each layer in pipeline order: sparql.Parse, then
// algebra.Translate + optimize.Optimize, then for every pattern of every
// BGP overlay.PatternKey, System.ResolveKey and LookupClient.Lookup, for
// every target of the row StorageNode.LocalMatch, and eval.Join over the
// per-pattern partials. Each call leaves one host span under the op's
// replay span, with the counts taken at the same boundary. The algebra
// above the BGPs (OPTIONAL, UNION, ORDER BY, projection), shipping and the
// engine's own bookkeeping are not replayed: they are what the residual
// metrics hold.
//
// chord.resolve is measured on its own for the chord layer's rows;
// LookupClient.Lookup repeats the same walk before it reads the row, so
// the residual sums leave chord.resolve out.
type replayer struct {
	tr     *tracer
	dep    *deployment
	lookup *overlay.LookupClient
	// partials collects every per-pattern partial result when keepPartials
	// is set, for the rows that want a real intermediate result as input.
	keepPartials bool
	partials     []eval.Solutions
}

func newReplayer(tr *tracer, dep *deployment) *replayer {
	return &replayer{tr: tr, dep: dep, lookup: overlay.NewLookupClient(dep.sys)}
}

// replay runs one query text issued by initiator and returns the sum of
// its layer spans, in ns, without chord.resolve.
func (rp *replayer) replay(op int, initiator simnet.Addr, text string) (float64, error) {
	tr := rp.tr
	first := len(tr.spans)
	root := tr.begin(spanReplay, op, 0)
	s := tr.begin(spanParse, op, root)
	q, err := sparql.Parse(text)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin(spanPlan, op, root)
	plan, err := algebra.Translate(q)
	if err == nil {
		plan = optimize.Optimize(plan, optimize.Options{PushFilters: true})
	}
	tr.end(s)
	if err != nil {
		return 0, err
	}
	// A filter directly above a BGP ships with its sub-queries, as in the
	// engine; every other BGP runs bare.
	filtered := map[*algebra.BGP]bool{}
	algebra.Walk(plan, func(o algebra.Op) {
		if err != nil {
			return
		}
		switch o := o.(type) {
		case *algebra.Filter:
			if bgp, ok := o.Input.(*algebra.BGP); ok {
				filtered[bgp] = true
				err = rp.bgp(op, root, initiator, bgp.Patterns, o.Expr)
			}
		case *algebra.BGP:
			if !filtered[o] {
				err = rp.bgp(op, root, initiator, o.Patterns, nil)
			}
		}
	})
	tr.end(root)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, sp := range tr.spans[first:] {
		if sp.Name != spanReplay && sp.Name != spanResolve {
			sum += float64(sp.End - sp.Start)
		}
	}
	return sum, nil
}

// bgp replays the index and storage work of one basic graph pattern.
func (rp *replayer) bgp(op, parent int, initiator simnet.Addr, patterns []rdf.Triple, filter sparql.Expression) error {
	tr, sys, net := rp.tr, rp.dep.sys, rp.dep.sys.Net()
	var acc eval.Solutions
	bound := map[string]bool{}
	for i, pat := range patterns {
		varSet(pat.Vars(), bound)
		key, _, ok := overlay.PatternKey(pat, sys.Config().Bits)
		if !ok {
			return fmt.Errorf("replay: pattern %v has no index key", pat)
		}
		before := net.Metrics().Messages
		s := tr.begin(spanResolve, op, parent)
		_, hops, done, err := sys.ResolveKey(initiator, key, rp.dep.now)
		tr.end(s)
		if err != nil {
			return err
		}
		tr.count(s, "hops", float64(hops))
		tr.count(s, "msgs", float64(net.Metrics().Messages-before))
		rp.dep.now = done

		before = net.Metrics().Messages
		s = tr.begin(spanLookup, op, parent)
		row, done, err := rp.lookup.Lookup(initiator, key, trace.TraceContext{}, trace.TraceContext{}, rp.dep.now)
		tr.end(s)
		if err != nil {
			return err
		}
		tr.count(s, "msgs", float64(net.Metrics().Messages-before))
		tr.count(s, "vms", float64(done-rp.dep.now)/1e6)
		tr.count(s, "postings", float64(len(row.Postings)))
		rp.dep.now = done

		// A filter that one pattern's variables cover ships with that
		// pattern's sub-queries; otherwise it runs after the join that binds
		// its last variable.
		var pushed sparql.Expression
		if filter != nil && covers(varSet(pat.Vars(), nil), filter.Vars()) {
			pushed, filter = filter, nil
		}
		var partial eval.Solutions
		for _, p := range row.Postings {
			node, ok := sys.Storage(p.Node)
			if !ok {
				return fmt.Errorf("replay: posting names unknown provider %s", p.Node)
			}
			s = tr.begin(spanLocalMatch, op, parent)
			sols := node.LocalMatch([]rdf.Triple{pat}, pushed, nil)
			tr.end(s)
			tr.count(s, "rows", float64(len(sols)))
			partial = append(partial, sols...)
		}
		if rp.keepPartials {
			rp.partials = append(rp.partials, partial)
		}
		if i == 0 {
			acc = partial
			continue
		}
		s = tr.begin(spanJoin, op, parent)
		joined := eval.Join(acc, partial)
		tr.end(s)
		tr.count(s, "rows_in", float64(len(acc)+len(partial)))
		tr.count(s, "rows_out", float64(len(joined)))
		acc = joined
		if filter != nil && covers(bound, filter.Vars()) {
			acc, filter = eval.FilterSolutions(acc, filter), nil
		}
	}
	return nil
}

// varSet adds vars to set (a new one when nil) and returns it.
func varSet(vars []string, set map[string]bool) map[string]bool {
	if set == nil {
		set = map[string]bool{}
	}
	for _, v := range vars {
		set[v] = true
	}
	return set
}

func covers(bound map[string]bool, vars []string) bool {
	for _, v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}
