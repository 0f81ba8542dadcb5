package dqp

import (
	"errors"
	"slices"
	"sort"
	"strconv"

	"adhocshare/internal/chord"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/trace"
)

// flatSet is a solution table together with the node it currently resides
// on — the unit of data the executor moves between sites. A one-pattern
// BGP's result is its accumulator's table where it lies, so a point query's
// matches become result mappings with no copy in between.
type flatSet struct {
	rows eval.Table
	site simnet.Addr
}

// operand is one side of a binary merge as the join-site policies read it.
type operand struct {
	site        simnet.Addr
	bytes, rows int
}

// operand is s as the join-site policies read it.
func (s flatSet) operand() operand {
	return operand{site: s.site, bytes: s.rows.SizeBytes(), rows: s.rows.N}
}

// unitSeed is what a BGP starts from: the unit key's one empty row, at the
// initiator.
func (c *qctx) unitSeed() flatSet {
	return flatSet{rows: eval.Table{N: 1}, site: c.initiator}
}

// exec evaluates an algebra operator distributedly and returns the
// resulting solutions, their site and the virtual completion time.
func (e *Engine) exec(ctx *qctx, op algebra.Op, at simnet.VTime) (flatSet, simnet.VTime, error) {
	if c, ok := e.asBGP(op); ok {
		if r, ok := ctx.waved[c.bgp]; ok {
			return r.set, simnet.MaxTime(at, r.done), nil // the query's wave ran it
		}
		return e.execBGP(ctx, c.bgp.Patterns, c.filter, c.scope, at)
	}
	switch o := op.(type) {
	case *algebra.Graph:
		return flatSet{}, at, errUnsupported(op)
	case *algebra.Filter:
		// A filter asBGP does not ship with its BGP's sub-queries is applied
		// where its input's solutions reside.
		return e.execUnary(ctx, o.Input, false, at, func(t eval.Table) eval.Table { return t.Filter(o.Expr) })
	case *algebra.Join:
		return e.execMerge(ctx, o.Left, o.Right, at, eval.JoinTables)
	case *algebra.LeftJoin:
		// OPTIONAL: the move-small placement of Sect. IV-E — but the left
		// operand is the semantic anchor, so the merge is not symmetric;
		// merge keeps operand order.
		return e.execMerge(ctx, o.Left, o.Right, at,
			func(a, b eval.Table) eval.Table { return eval.LeftJoinTables(a, b, o.Expr) })
	case *algebra.Union:
		return e.execMerge(ctx, o.Left, o.Right, at, eval.UnionTables)
	case *algebra.Project:
		in, done, err := e.exec(ctx, o.Input, at)
		if err != nil {
			return flatSet{}, done, err
		}
		// Keeping every column is the identity: a one-pattern BGP's matches
		// stay where they are.
		if slices.ContainsFunc(in.rows.Vars, func(v string) bool { return !slices.Contains(o.Names, v) }) {
			in.rows = in.rows.Project(o.Names)
		}
		return in, done, nil
	case *algebra.Distinct:
		return e.execUnary(ctx, o.Input, false, at, eval.Table.Distinct)
	case *algebra.Reduced:
		return e.execUnary(ctx, o.Input, false, at, eval.Table.Reduced)
	case *algebra.OrderBy:
		// Sorting is a solution-sequence modifier applied during
		// post-processing at the initiator (Fig. 3), as is slicing.
		return e.execUnary(ctx, o.Input, true, at, func(t eval.Table) eval.Table { return t.Order(o.Conds) })
	case *algebra.Slice:
		return e.execUnary(ctx, o.Input, true, at, func(t eval.Table) eval.Table { return t.Slice(o.Offset, o.Limit) })
	default:
		return flatSet{}, at, errUnsupported(op)
	}
}

// bgpCall is a BGP as exec hands it to execBGP: with the filter that ships
// with its sub-queries and its GRAPH scope.
type bgpCall struct {
	bgp    *algebra.BGP
	filter sparql.Expression
	scope  rdf.Term
}

// asBGP reports whether exec evaluates op as one BGP, and with what. A
// filter directly above a BGP ships with the sub-queries and runs at the
// storage nodes (Sect. IV-G filter pushing). Under GRAPH the inner BGP,
// optionally with a filter, which then always ships, goes out with the
// graph name and providers match against their named graphs (Sect. IV-A
// named-graph matching).
func (e *Engine) asBGP(op algebra.Op) (bgpCall, bool) {
	switch o := op.(type) {
	case *algebra.BGP:
		return bgpCall{bgp: o}, true
	case *algebra.Filter:
		if bgp, ok := o.Input.(*algebra.BGP); ok && e.opts.PushFilters {
			return bgpCall{bgp: bgp, filter: o.Expr}, true
		}
	case *algebra.Graph:
		switch inner := o.Input.(type) {
		case *algebra.BGP:
			return bgpCall{bgp: inner, scope: o.Name}, true
		case *algebra.Filter:
			if bgp, ok := inner.Input.(*algebra.BGP); ok {
				return bgpCall{bgp: bgp, filter: inner.Expr, scope: o.Name}, true
			}
		}
	}
	return bgpCall{}, false
}

// bgpCalls appends the non-empty BGPs exec reaches in op to out, in the
// order it reaches them. It follows the operators' fields, not Children,
// which allocates its result.
func (e *Engine) bgpCalls(op algebra.Op, out []bgpCall) []bgpCall {
	if c, ok := e.asBGP(op); ok {
		if len(c.bgp.Patterns) > 0 {
			out = append(out, c)
		}
		return out
	}
	switch o := op.(type) {
	case *algebra.Join:
		return e.bgpCalls(o.Right, e.bgpCalls(o.Left, out))
	case *algebra.LeftJoin:
		return e.bgpCalls(o.Right, e.bgpCalls(o.Left, out))
	case *algebra.Union:
		return e.bgpCalls(o.Right, e.bgpCalls(o.Left, out))
	case *algebra.Filter:
		return e.bgpCalls(o.Input, out)
	case *algebra.Project:
		return e.bgpCalls(o.Input, out)
	case *algebra.Distinct:
		return e.bgpCalls(o.Input, out)
	case *algebra.Reduced:
		return e.bgpCalls(o.Input, out)
	case *algebra.OrderBy:
		return e.bgpCalls(o.Input, out)
	case *algebra.Slice:
		return e.bgpCalls(o.Input, out)
	}
	return out // a GRAPH exec refuses
}

// execQuery evaluates a query's plan. Every BGP exec reaches starts at the
// query's start time, so the BGPs of a query with several are all planned
// in one round first (planKeys), and under basic/parallel-join they leave
// together as one round, the wave (waveAll); exec then finds their results
// where the wave left them, at the initiator. A query with one BGP is
// planned by it.
func (e *Engine) execQuery(ctx *qctx, op algebra.Op, at simnet.VTime) (flatSet, simnet.VTime, error) {
	var buf [4]bgpCall
	if calls := e.bgpCalls(op, buf[:0]); len(calls) > 1 {
		bits := e.sys.Config().Bits
		var keys []chord.ID
		for _, c := range calls {
			for _, pat := range c.bgp.Patterns {
				if key, _, ok := overlay.PatternKey(pat, bits); ok && !slices.Contains(keys, key) {
					keys = append(keys, key)
				}
			}
		}
		if done, err := e.planKeys(ctx, keys, at); err != nil {
			return flatSet{}, done, err
		}
		if e.opts.Strategy == StrategyBasic && e.opts.Conjunction == ConjParallelJoin {
			if done, err := e.waveAll(ctx, calls, at); err != nil {
				return flatSet{}, done, err
			}
		}
	}
	return e.exec(ctx, op, at)
}

// waveAll runs the BGPs of calls as the wave, one round from the initiator,
// once all of them are planned (execWave) and leaves their results in
// ctx.waved.
func (e *Engine) waveAll(ctx *qctx, calls []bgpCall, at simnet.VTime) (simnet.VTime, error) {
	bgps := make([]bgpPlan, len(calls))
	start := at
	for i, c := range calls {
		b, ready, err := e.planBGP(ctx, c.bgp.Patterns, c.filter, c.scope, at)
		if err != nil {
			return ready, err
		}
		bgps[i] = b
		start = simnet.MaxTime(start, ready)
	}
	results := make([]bgpResult, len(bgps))
	done, err := e.execWave(ctx, bgps, results, start)
	if err != nil {
		return done, err
	}
	ctx.keepWave(calls, results)
	return done, nil
}

// execUnary evaluates input and applies f to its solutions where they
// reside, or, home set, at the initiator.
func (e *Engine) execUnary(ctx *qctx, input algebra.Op, home bool, at simnet.VTime, f func(eval.Table) eval.Table) (flatSet, simnet.VTime, error) {
	in, done, err := e.exec(ctx, input, at)
	if err == nil && home {
		in, done, err = e.ship(ctx, in, ctx.initiator, overlay.MethodShip, done)
	}
	if err != nil {
		return flatSet{}, done, err
	}
	in.rows = f(in.rows)
	return in, done, nil
}

// execMerge evaluates two operands starting at the same virtual time — the
// branches proceed in parallel on disjoint nodes, so each completes at its
// own time and the merge starts at the later one — and merges them.
func (e *Engine) execMerge(ctx *qctx, left, right algebra.Op, at simnet.VTime, op func(a, b eval.Table) eval.Table) (flatSet, simnet.VTime, error) {
	l, lDone, err := e.exec(ctx, left, at)
	if err != nil {
		return flatSet{}, lDone, err
	}
	r, rDone, err := e.exec(ctx, right, at)
	if err != nil {
		return flatSet{}, rDone, err
	}
	return e.merge(ctx, l, r, simnet.MaxTime(lDone, rDone), op)
}

// merge brings both operands to one site per the join-site policy and
// applies op there — a join, a left join or a union above a BGP, a join of
// two partial results inside one. Operand order is preserved (op may be
// asymmetric, e.g. a left join).
func (e *Engine) merge(ctx *qctx, l, r flatSet, at simnet.VTime, op func(a, b eval.Table) eval.Table) (flatSet, simnet.VTime, error) {
	site := l.site
	if l.site != r.site {
		site = e.pickJoinSite(ctx, l, r, func() bool {
			return slices.ContainsFunc(l.rows.Vars, func(v string) bool { return l.rows.Binds(v) && r.rows.Binds(v) })
		})
	}
	l, now, err := e.ship(ctx, l, site, overlay.MethodShip, at)
	if err != nil {
		return flatSet{}, now, err
	}
	r, now, err = e.ship(ctx, r, site, overlay.MethodShip, now)
	if err != nil {
		return flatSet{}, now, err
	}
	return flatSet{rows: op(l.rows, r.rows), site: site}, now, nil
}

// pickJoinSite implements the join-site selection strategies of Sect. II
// for operands on different sites. shared reports whether the operands bind
// a common variable; only the QoS policy's result estimate asks.
func (e *Engine) pickJoinSite(ctx *qctx, ls, rs flatSet, shared func() bool) simnet.Addr {
	switch e.opts.JoinSite {
	case JoinSiteQuerySite:
		return ctx.initiator
	case JoinSiteQoS:
		return e.pickQoSSite(ctx, ls.operand(), rs.operand(), shared())
	case JoinSiteThirdSite:
		// The paper's third-site strategy consults QoS monitors; with
		// uniform simulated links we pick the first live index node that
		// is neither operand site (deterministic).
		for _, n := range e.sys.IndexNodes() {
			a := n.Addr()
			if a != ls.site && a != rs.site && e.sys.Net().Alive(a) {
				return a
			}
		}
		return ctx.initiator
	default: // JoinSiteMoveSmall
		if ls.operand().bytes <= rs.operand().bytes {
			return rs.site
		}
		return ls.site
	}
}

// pickQoSSite scores candidate join sites by link quality — the
// "pushing QoS information into global query optimization" of Ye et al.
// (the paper's third-site reference). The score is the virtual cost of
// moving both operands to the candidate plus the estimated result's trip
// to the initiator, all scaled by the measured link factors.
func (e *Engine) pickQoSSite(ctx *qctx, l, r operand, shared bool) simnet.Addr {
	net := e.sys.Net()
	lBytes := float64(l.bytes)
	rBytes := float64(r.bytes)
	// Result-size estimate: with shared variables the join is assumed
	// containing (≈ the smaller operand); without any, it is a cross
	// product of lRows×rRows rows, each the concatenation of one row from
	// each side.
	var resBytes float64
	if shared {
		resBytes = lBytes
		if rBytes < resBytes {
			resBytes = rBytes
		}
	} else {
		resBytes = float64(r.rows)*lBytes + float64(l.rows)*rBytes
	}
	candidates := []simnet.Addr{l.site, r.site, ctx.initiator}
	for _, n := range e.sys.IndexNodes() {
		if net.Alive(n.Addr()) {
			candidates = append(candidates, n.Addr())
		}
	}
	best := simnet.Addr("")
	bestCost := 0.0
	for _, c := range candidates {
		if c == "" || !net.Alive(c) {
			continue
		}
		cost := 0.0
		if c != l.site {
			cost += lBytes * net.PathFactor(l.site, c)
		}
		if c != r.site {
			cost += rBytes * net.PathFactor(r.site, c)
		}
		if c != ctx.initiator {
			cost += resBytes * net.PathFactor(c, ctx.initiator)
		}
		if best == "" || cost < bestCost || (cost == bestCost && c < best) {
			best = c
			bestCost = cost
		}
	}
	if best == "" {
		return ctx.initiator
	}
	return best
}

// ship moves a solution table to the destination site as one one-way
// message, charged what the same rows cost as mappings, and goes on with
// the rows the destination took over. Shipping to the current site is
// free. A leg that stays lost after retries strands the intermediate
// result, so it surfaces as a partial-failure error instead of an
// incomplete answer.
func (e *Engine) ship(ctx *qctx, s flatSet, dest simnet.Addr, method string, at simnet.VTime) (flatSet, simnet.VTime, error) {
	if s.site == dest || s.site == "" {
		s.site = dest
		return s, at, nil
	}
	got, done, err := e.forward(s.site, dest, method, rowsPayload{Rows: s.rows, TC: ctx.nextTC(ctx.tc)}, at)
	if err != nil {
		return flatSet{}, done, err
	}
	return flatSet{rows: got.(rowsPayload).Rows, site: dest}, done, nil
}

// forward sends payload one way to a node whose handler takes it over, and
// returns what that handler returned; a loss past the retry budget surfaces
// as a partial-failure error (other errors pass through for the caller to
// classify).
func (e *Engine) forward(from, to simnet.Addr, method string, payload simnet.Payload, at simnet.VTime) (simnet.Payload, simnet.VTime, error) {
	got, done, err := e.sys.Net().ForwardRetry(from, to, method, payload, at)
	if err != nil && simnet.IsLost(err) {
		err = &PartialFailureError{Method: method, Missing: []simnet.Addr{to}, Err: err}
	}
	return got, done, err
}

// patternPlan is the plan-time resolution of one triple pattern: its index
// key, the responsible index node and the location-table row (with the
// Table I frequencies that drive ordering decisions).
type patternPlan struct {
	pattern  rdf.Triple
	hasKey   bool
	key      chord.ID
	index    simnet.Addr
	postings []overlay.Posting
	flood    bool
	// stopOnFirst marks the single pattern of an existence-only query:
	// one solution proves existence, so the fan-out/chain may stop early.
	stopOnFirst bool
}

// totalFreq is the number of matching triples across all targets — the
// cardinality estimate the global optimizer uses.
func (p patternPlan) totalFreq() int {
	n := 0
	for _, q := range p.postings {
		n += q.Freq
	}
	return n
}

// planKeys resolves the keys ctx holds no row for yet, in one planning
// round from the initiator through the two-level index — route to the
// responsible index node (level one), read the location-table row (level
// two) — and keeps the rows in ctx for every BGP of the query. A key the
// lookup cache holds under a live index node is ready at once; the others
// go to the lookup client together (overlay.LookupClient.LookupBatch): the
// keys inside owner arcs the initiator holds as one direct index.routed_read
// per owner, the rest as one index.routed_read that the ring routes from
// the initiator's entry point, splitting it by next hop. Each owner answers
// the initiator directly, once for all of its keys. A key's row is ready
// when its owner's reply is in; the round's cost is part of the query cost.
func (e *Engine) planKeys(ctx *qctx, keys []chord.ID, at simnet.VTime) (simnet.VTime, error) {
	if !slices.ContainsFunc(keys, ctx.unplanned) {
		return at, nil
	}
	// The round gets its own op span; the lookup client derives its message
	// contexts from it — the span identifiers the trace goldens pin.
	planTC := ctx.nextTC(ctx.tc)
	remote, filtered := keys, false // the keys to look up, keys itself until one is not
	for i, key := range keys {
		skip := !ctx.unplanned(key)
		if !skip && e.opts.CacheLookups {
			if row, ok := e.cache.get(key); ok && e.sys.Net().Alive(row.index) {
				ctx.keepRow(resolvedRow{key: key, index: row.index, postings: row.postings, ready: at})
				ctx.countLookup(0, true)
				skip = true
			}
		}
		switch {
		case skip && !filtered:
			remote, filtered = slices.Clone(keys[:i]), true
		case !skip && filtered:
			remote = append(remote, key)
		}
	}
	done := at
	if len(remote) > 0 {
		rows, end, err := e.hot.LookupBatch(ctx.initiator, remote, planTC, at)
		done = simnet.MaxTime(at, end)
		if err != nil {
			return done, lookupFailure(err)
		}
		for i, key := range remote {
			r := rows[i]
			ctx.keepRow(resolvedRow{key: key, index: r.Index, postings: r.Postings, ready: r.Done})
			ctx.countLookup(r.Hops, false)
			if r.ReplicaHit {
				ctx.countReplicaHit()
			}
			if e.opts.CacheLookups {
				e.cache.put(key, cachedRow{index: r.Index, postings: append([]overlay.Posting(nil), r.Postings...)})
			}
		}
	}
	ctx.opSpan(planTC, "dqp.plan", string(ctx.initiator), "", at, done)
	return done, nil
}

// lookupFailure types a failed planning round: a routed read still lost
// after its re-sends is a partial failure naming the read's method and, if
// the error names one, the owner.
func lookupFailure(err error) error {
	var le *overlay.LookupError
	if !errors.As(err, &le) || !simnet.IsLost(le.Err) {
		return err
	}
	pf := &PartialFailureError{Method: le.Method, Err: le.Err}
	if le.Owner != "" {
		pf.Missing = []simnet.Addr{le.Owner}
	}
	return pf
}

// planPatterns plans every pattern of a BGP: its index key, the responsible
// index node and the location-table row, from the query's planning round
// (planKeys resolves any key it did not cover — a DESCRIBE's, whose
// resources come from rows). An all-variable pattern has no key and floods
// every storage node. The plans are ready when the last of their rows is.
func (e *Engine) planPatterns(ctx *qctx, patterns []rdf.Triple, at simnet.VTime) ([]patternPlan, simnet.VTime, error) {
	plans := make([]patternPlan, len(patterns))
	bits := e.sys.Config().Bits
	var keys []chord.ID
	for i, pat := range patterns {
		plans[i] = patternPlan{pattern: pat}
		key, _, ok := overlay.PatternKey(pat, bits)
		if !ok {
			// All-variable pattern: no index key exists; fall back to
			// flooding every storage node (the unstructured lower layer).
			plans[i].flood = true
			for _, st := range e.sys.StorageNodes() {
				plans[i].postings = append(plans[i].postings, overlay.Posting{Node: st.Addr(), Freq: st.Graph.Size()})
			}
			continue
		}
		plans[i].hasKey, plans[i].key = true, key
		if !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
	}
	if done, err := e.planKeys(ctx, keys, at); err != nil {
		return nil, done, err
	}
	now := at
	for i := range plans {
		if !plans[i].hasKey {
			continue
		}
		row := ctx.row(plans[i].key)
		plans[i].index = row.index
		plans[i].postings = append([]overlay.Posting(nil), row.postings...)
		now = simnet.MaxTime(now, row.ready)
	}
	return plans, now, nil
}

// bgpPlan is a BGP ready to run: its pattern plans in execution order, the
// conjuncts of the filter that ships with it, that filter, and its GRAPH
// scope.
type bgpPlan struct {
	plans     []patternPlan
	conjuncts []sparql.Expression
	filter    sparql.Expression
	scope     rdf.Term
}

// bgpResult is a BGP's result and when it was complete.
type bgpResult struct {
	set  flatSet
	done simnet.VTime
}

// planBGP plans a BGP's patterns and puts them in execution order: by the
// location-table frequencies when ReorderJoins is set. The lone pattern of
// an existence-only query may stop at the first matching solution.
func (e *Engine) planBGP(ctx *qctx, patterns []rdf.Triple, filter sparql.Expression, scope rdf.Term, at simnet.VTime) (bgpPlan, simnet.VTime, error) {
	plans, now, err := e.planPatterns(ctx, patterns, at)
	if err != nil {
		return bgpPlan{}, now, err
	}
	if e.opts.ReorderJoins && len(plans) > 1 {
		plans = reorderPlans(plans)
	}
	if len(plans) == 1 {
		// ASK over one pattern: the first matching solution settles it.
		plans[0].stopOnFirst = ctx.existenceOnly
	}
	return bgpPlan{plans: plans, conjuncts: optimize.SplitConjuncts(filter), filter: filter, scope: scope}, now, nil
}

// execBGP evaluates a basic graph pattern distributedly. filter, when
// non-nil, is decomposed into conjuncts and each conjunct ships with the
// earliest sub-query whose variables cover it; the whole filter applies
// once more at the end. The partial solutions are flat rows throughout.
func (e *Engine) execBGP(ctx *qctx, patterns []rdf.Triple, filter sparql.Expression, scope rdf.Term, at simnet.VTime) (flatSet, simnet.VTime, error) {
	if len(patterns) == 0 {
		return ctx.unitSeed(), at, nil
	}
	b, now, err := e.planBGP(ctx, patterns, filter, scope, at)
	if err != nil {
		return flatSet{}, now, err
	}
	if e.opts.Strategy == StrategyBasic && e.opts.Conjunction == ConjParallelJoin {
		var res [1]bgpResult
		if done, err := e.execWave(ctx, []bgpPlan{b}, res[:], now); err != nil {
			return flatSet{}, done, err
		}
		return res[0].set, simnet.MaxTime(now, res[0].done), nil
	}
	var out flatSet
	if e.opts.Conjunction == ConjParallelJoin {
		out, now, err = e.execParallelJoin(ctx, b, now)
	} else {
		out, now, err = e.execPipeline(ctx, b, now)
	}
	if err != nil {
		return flatSet{}, now, err
	}
	// Conjuncts referring to variables bound only across patterns
	// evaluated in parallel were never shipped; which ones is not known
	// here, so the whole filter applies — idempotent for the shipped ones.
	out.rows = out.rows.Filter(filter)
	return out, now, nil
}

// execPipeline runs the sequential conjunction of Sect. IV-D basic
// processing as a distributed semi-join: each pattern is asked only for
// the distinct values the accumulated solutions give the variables it
// shares with them, and its matches are joined with the full solutions at
// the site that assembles them — under the basic strategy a round of its
// own (pipelineRound), under the chains the chain's last node
// (execPattern). A filter conjunct ships with the first pattern that covers
// it alone; one that also needs a variable of an earlier pattern applies
// after that join.
func (e *Engine) execPipeline(ctx *qctx, b bgpPlan, at simnet.VTime) (flatSet, simnet.VTime, error) {
	cur := ctx.unitSeed()
	now := at
	var own [3]string
	bound := make([]string, 0, 3*len(b.plans))
	shipped := make([]bool, len(b.conjuncts))
	for i := range b.plans {
		plan := &b.plans[i]
		vars := plan.pattern.AppendVars(own[:0])
		for _, v := range vars {
			if !slices.Contains(bound, v) {
				bound = append(bound, v)
			}
		}
		push := shippableFilter(b.conjuncts, shipped, vars)
		after := shippableFilter(b.conjuncts, shipped, bound)
		var (
			m    patternMatches
			done simnet.VTime
			err  error
		)
		if e.opts.Strategy == StrategyBasic {
			m, done, err = e.pipelineRound(ctx, plan, cur, push, b.scope, now)
		} else {
			m, done, err = e.execPattern(ctx, *plan, cur, push, b.scope, "", now)
		}
		if err != nil {
			return flatSet{}, done, err
		}
		now = done
		cur = m.result()
		cur.rows = cur.rows.Filter(after)
		if cur.rows.N == 0 {
			// Empty intermediate result: the conjunction is empty
			// (short-circuit; no further sub-queries needed).
			return cur, now, nil
		}
	}
	return cur, now, nil
}

// execParallelJoin runs the optimized conjunction of Sect. IV-D under the
// chain strategies (basic runs it as one round, execWave): every pattern is
// evaluated over its own target set in parallel from the unit seed, chains
// are ordered to end at a storage node shared with the neighbouring pattern
// when one exists, and the per-pattern results are joined left to right at
// assembly sites.
func (e *Engine) execParallelJoin(ctx *qctx, b bgpPlan, at simnet.VTime) (flatSet, simnet.VTime, error) {
	plans := b.plans
	results := make([]flatSet, len(plans))
	times := make([]simnet.VTime, len(plans))
	shipped := make([]bool, len(b.conjuncts))
	for i := range plans {
		// Per-pattern filters: conjuncts covered by this pattern alone.
		var own [3]string
		f := shippableFilter(b.conjuncts, shipped, plans[i].pattern.AppendVars(own[:0]))
		// Prefer ending this pattern's chain at a node shared with the
		// previous pattern's target set, so the join needs no shipping.
		prefer := simnet.Addr("")
		if i > 0 {
			prefer = sharedTarget(plans[i-1], plans[i])
		}
		m, done, err := e.execPattern(ctx, plans[i], ctx.unitSeed(), f, b.scope, prefer, at)
		if err != nil {
			return flatSet{}, done, err
		}
		results[i] = m.result()
		times[i] = done
	}
	cur, now := results[0], times[0]
	for i := 1; i < len(plans); i++ {
		var err error
		cur, now, err = e.merge(ctx, cur, results[i], simnet.MaxTime(now, times[i]), eval.JoinTables)
		if err != nil {
			return flatSet{}, now, err
		}
	}
	return cur, now, nil
}

// unlisted reports that no provider lists the pattern: a BGP holding it is
// empty, and no round sends it.
func unlisted(p patternPlan) bool { return len(p.postings) == 0 }

// execWave runs the parallel-join conjunction under the basic strategy, for
// one BGP or for all the BGPs of a query (waveAll), as one round at the
// initiator, which holds every pattern's location-table row once planning
// is done: every pattern is sent the unit key with the filter conjuncts it
// covers alone, and each BGP's pattern results are joined left to right
// where the replies land (Sect. IV-D parallel evaluation). A BGP with a
// pattern no provider lists is empty and sends nothing. out[i] receives
// bgps[i]'s result, complete when the last reply carrying one of its units
// is in.
func (e *Engine) execWave(ctx *qctx, bgps []bgpPlan, out []bgpResult, at simnet.VTime) (simnet.VTime, error) {
	n := 0
	for b, w := range bgps {
		out[b] = bgpResult{set: flatSet{site: ctx.initiator}, done: at}
		if !slices.ContainsFunc(w.plans, unlisted) {
			n += len(w.plans)
		}
	}
	if n == 0 {
		return at, nil
	}
	var buf [1]roundPattern
	pats := buf[:0]
	if n > 1 {
		pats = make([]roundPattern, 0, n)
	}
	for _, w := range bgps {
		if slices.ContainsFunc(w.plans, unlisted) {
			continue
		}
		shipped := make([]bool, len(w.conjuncts))
		for k := range w.plans {
			p := &w.plans[k]
			var own [3]string
			pats = append(pats, roundPattern{plan: p, unit: overlay.MatchUnit{Pattern: p.pattern, Keys: eval.Table{N: 1},
				Graph: w.scope, Filter: shippableFilter(w.conjuncts, shipped, p.pattern.AppendVars(own[:0]))}})
		}
	}
	_, done, err := e.execRound(ctx, pats, ctx.unitSeed(), ctx.initiator, at)
	if err != nil {
		return done, err
	}
	// Each pattern's replies are merged once, into an accumulator keyed on
	// the columns they share with the rows of the patterns before it: the
	// join's index. Once the rows are empty, later patterns' replies are
	// not merged. Conjuncts referring to variables of several patterns were
	// never shipped; the whole filter applies, idempotent for the shipped
	// ones.
	for b, w := range bgps {
		if slices.ContainsFunc(w.plans, unlisted) {
			continue
		}
		var rows eval.Table
		for k, p := range pats[:len(w.plans)] {
			out[b].done = simnet.MaxTime(out[b].done, p.end)
			if k == 0 {
				acc := eval.NewMatches(p.unit.Keys, 0)
				acc.AddAll(p.replies)
				rows = acc.Table()
			} else if rows.N > 0 {
				acc := eval.NewMatches(rows, 0)
				acc.AddAll(p.replies)
				rows = acc.Join(rows)
			}
		}
		out[b].set.rows = rows.Filter(w.filter)
		pats = pats[len(w.plans):]
	}
	return done, nil
}

// pipelineRound runs a pattern of the basic pipeline as a round of its
// own, assembled at the pattern's index node, or where the seeds are when
// the pattern floods: each target is sent the keys projected from the
// seeds, or the unit key where unitKeyed says so, and the union of the
// replies joins the seeds there. Keys go out only where they pay and only
// the pattern's own matches come in: the fewest bytes of any pipeline.
func (e *Engine) pipelineRound(ctx *qctx, plan *patternPlan, seeds flatSet, filter sparql.Expression, scope rdf.Term, at simnet.VTime) (patternMatches, simnet.VTime, error) {
	if unlisted(*plan) {
		return patternMatches{acc: eval.NewMatches(eval.Table{}, 0), rowsKeys: true, site: seeds.site}, at, nil
	}
	keys, mask, rowsKeys := projectKeys(*plan, scope, seeds.rows, false)
	assembly := plan.index
	if assembly == "" {
		assembly = seeds.site
	}
	pats := [1]roundPattern{{plan: plan, mask: mask,
		unit: overlay.MatchUnit{Pattern: plan.pattern, Filter: filter, Keys: keys, Graph: scope}}}
	rows, done, err := e.execRound(ctx, pats[:], seeds, assembly, at)
	if err != nil {
		return patternMatches{}, done, err
	}
	acc := eval.NewMatches(keys, 0)
	acc.AddAll(pats[0].replies)
	return patternMatches{acc: acc, seeds: rows, rowsKeys: rowsKeys, site: assembly}, done, nil
}

// roundPattern is one pattern of a round: its plan, the unit its targets
// are asked for and which of them get the unit key in place of the unit's
// keys. The round fills in its op span, its replies by posting — unioned
// in that order, they give the rows of a round of its own — and when the
// last of them was in.
type roundPattern struct {
	plan    *patternPlan
	unit    overlay.MatchUnit
	mask    unitMask
	tc      trace.TraceContext
	replies []eval.Table
	end     simnet.VTime
}

// execRound runs a round, the one way the basic strategy evaluates
// patterns (Sect. IV-C basic fan-out). Every pattern, each with a posting,
// leaves assembly at once: each target is sent one store.match with a unit
// for every pattern listing it and answers there with a table per unit.
// Seeds, the partial solutions the keys were projected from, lying
// elsewhere go to assembly first with the sub-query, one dqp.dispatch leg;
// execRound returns them as assembly holds them. ASK over one pattern is
// the one exception to "at once": the first match settles it, so the
// targets are asked one after another, each when the one before answered
// empty.
func (e *Engine) execRound(ctx *qctx, pats []roundPattern, seeds flatSet, assembly simnet.Addr, at simnet.VTime) (eval.Table, simnet.VTime, error) {
	n := 0
	for i := range pats {
		pats[i].tc = ctx.nextTC(ctx.tc)
		n += len(pats[i].plan.postings)
	}
	start := at
	targets, units := roundTargets(pats, n)
	if seeds.site != assembly {
		if units == nil {
			units = make([]overlay.MatchUnit, len(pats))
			for i, p := range pats {
				units[i] = p.unit
			}
		}
		sub := overlay.MatchReq{Units: units, Dataset: ctx.dataset, FromNamed: ctx.fromNamed, TC: pats[0].tc.Child(0)}
		got, done, err := e.forward(seeds.site, assembly, overlay.MethodDispatch, dispatchPayload{Sub: sub, Rows: seeds.rows}, at)
		if err != nil {
			return eval.Table{}, done, err
		}
		seeds.rows, start = got.(dispatchPayload).Rows, done
	}
	replies := make([]eval.Table, n)
	for i := range pats {
		k := len(pats[i].plan.postings)
		pats[i].replies, replies = replies[:k:k], replies[k:]
		pats[i].end = start
	}
	sequential := len(pats) == 1 && pats[0].plan.stopOnFirst
	now, done := start, start
	for _, t := range targets {
		// The request is a message span of its first unit's pattern;
		// sequence 0 is the dispatch's.
		first := t.units[0]
		req := overlay.MatchReq{Units: t.sent, Dataset: ctx.dataset, FromNamed: ctx.fromNamed,
			TC: pats[first.pat].tc.Child(uint64(first.posting + 1))}
		resp, end, err := e.sys.Net().CallRetry(assembly, t.node, overlay.MethodMatch, req, now)
		done = simnet.MaxTime(done, end)
		for _, u := range t.units {
			pats[u.pat].end = simnet.MaxTime(pats[u.pat].end, end)
		}
		if sequential {
			now = end
		}
		if err != nil {
			if simnet.IsLost(err) {
				// The target is alive but the link stayed lossy past the
				// retry budget: dropping its contribution would silently
				// truncate the result, so the query fails explicitly.
				return eval.Table{}, end, &PartialFailureError{
					Method: overlay.MethodMatch, Missing: []simnet.Addr{t.node}, Err: err}
			}
			// Unreachable target: its triples left the dataset; every
			// pattern listing it drops the stale posting, and the answer is
			// over the remaining providers.
			for k, u := range t.units {
				e.dropStale(ctx, *pats[u.pat].plan, t.node, assembly, req.TC.Child(uint64(k+1)), end)
			}
			continue
		}
		tables := resp.(overlay.MatchResp).Tables
		for k, u := range t.units {
			ctx.countSubquery(t.node)
			pats[u.pat].replies[u.posting] = tables[k]
		}
		if sequential && tables[0].N > 0 {
			break // existence settled: the remaining targets are not asked
		}
	}
	if ctx.rec != nil {
		for _, p := range pats {
			ctx.opSpan(p.tc, "dqp.pattern", string(ctx.initiator),
				e.opts.Strategy.String()+" "+p.plan.pattern.String()+keysNote(p.unit.Keys, p.mask), at, p.end)
		}
	}
	return seeds.rows, done, nil
}

// roundUnit is one (pattern, target) pair of a round: the pattern and the
// target's position in its postings.
type roundUnit struct{ pat, posting int }

// roundTarget is one store.match of a round: a target, its units in
// pattern order and what each sends it, the pattern's unit or, where the
// pattern's mask marks the target, its unit-key form.
type roundTarget struct {
	node  simnet.Addr
	units []roundUnit
	sent  []overlay.MatchUnit
}

// roundTargets groups the patterns' n postings by target, targets in the
// order the patterns first list them. One pattern needs no grouping: its
// postings are the targets, and they share its unit's two forms; the
// first, the pattern's unit, is returned too, for a dispatch to carry.
// Several patterns return none.
func roundTargets(pats []roundPattern, n int) ([]roundTarget, []overlay.MatchUnit) {
	first := pats[0].plan.postings
	out := make([]roundTarget, 0, len(first))
	if len(pats) == 1 {
		units := make([]roundUnit, len(first))
		forms := []overlay.MatchUnit{pats[0].unit, pats[0].unit}
		forms[1].Keys = eval.Table{N: 1}
		for i, q := range first {
			units[i].posting = i
			k := 0
			if pats[0].mask.has(i) {
				k = 1
			}
			out = append(out, roundTarget{node: q.Node, units: units[i : i+1 : i+1], sent: forms[k : k+1 : k+1]})
		}
		return out, forms[:1:1]
	}
	at := make(map[simnet.Addr]int, len(first))
	for i, p := range pats {
		for fi, q := range p.plan.postings {
			k, ok := at[q.Node]
			if !ok {
				k = len(out)
				at[q.Node] = k
				out = append(out, roundTarget{node: q.Node})
			}
			out[k].units = append(out[k].units, roundUnit{pat: i, posting: fi})
		}
	}
	sent := make([]overlay.MatchUnit, 0, n)
	for k, t := range out {
		for _, u := range t.units {
			unit := pats[u.pat].unit
			if pats[u.pat].mask.has(u.posting) {
				unit.Keys = eval.Table{N: 1}
			}
			sent = append(sent, unit)
		}
		out[k].sent, sent = sent[:len(t.units):len(t.units)], sent[len(t.units):]
	}
	return out, nil
}

// sharedTarget returns a storage node present in both plans' target sets
// (the overlap node of the paper's S1 ∩ S2 example), preferring the one
// with the highest combined frequency; empty when disjoint.
func sharedTarget(a, b patternPlan) simnet.Addr {
	freq := map[simnet.Addr]int{}
	for _, p := range a.postings {
		freq[p.Node] = p.Freq
	}
	best := simnet.Addr("")
	bestFreq := -1
	for _, p := range b.postings {
		if fa, ok := freq[p.Node]; ok {
			if fa+p.Freq > bestFreq {
				bestFreq = fa + p.Freq
				best = p.Node
			}
		}
	}
	return best
}

// execPattern evaluates one triple pattern under a chain strategy and
// accumulates the matches where they can be joined with seeds, the partial
// solutions so far. What a target is asked for is keys, the distinct
// projection of the seeds onto the variables the pattern (or a GRAPH
// variable) shares with them; what comes back binds the pattern's variables
// only. Three cases follow from the seeds, none from a setting: the unit
// seed gives the unit key and the replies are the result; seeds sharing no
// variable with the pattern give the unit key too and the result is the
// cross product; seeds binding only variables the pattern mentions are
// their own keys, so the replies are the extended rows and no join runs. A
// fourth follows from the location table: when the keys would outweigh the
// rows they can spare the chain from carrying, every hop is sent the unit
// key in their place (unitKeyed), and the join with the seeds does the
// excluding.
//
// The sub-query, its keys and the matches accumulated so far forward
// through the targets in hop order (orderTargets; preferEnd, when a target,
// goes last for overlap-aware assembly); each node adds its local matches
// and passes the set on; the final node keeps it and becomes the new site.
// When the replies are not the result already, the partial solutions travel
// once, from where they are to that final node, and are joined with the
// matches there.
func (e *Engine) execPattern(ctx *qctx, plan patternPlan, seeds flatSet, filter sparql.Expression, scope rdf.Term, preferEnd simnet.Addr, at simnet.VTime) (patternMatches, simnet.VTime, error) {
	if unlisted(plan) {
		return patternMatches{acc: eval.NewMatches(eval.Table{}, 0), rowsKeys: true, site: seeds.site}, at, nil
	}
	seq := orderTargets(plan.postings, preferEnd, e.opts.Strategy == StrategyFreqChain)
	plan.postings = seq
	keys, unit, rowsKeys := projectKeys(plan, scope, seeds.rows, true)
	// Every pattern execution is one op span; the hops hang their message
	// spans off patTC, so a chain renders as the Fig. 5 chain shapes.
	patTC := ctx.nextTC(ctx.tc)
	sent := keys
	if unit.has(0) {
		sent = eval.Table{N: 1}
	}

	// The sub-query first travels to the index node, which knows the
	// sequence and forwards to its head (Sect. IV-C: "forwards the query
	// ... to the node at the top of the sequence list").
	now := at
	prev := seeds.site
	// linkTC is the context of the previous hop's message: every hop
	// derives its own from it, so a traced chain renders as a linked list
	// (vs. a round's star).
	linkTC := patTC
	sub := overlay.MatchReq{Units: []overlay.MatchUnit{{Pattern: plan.pattern, Filter: filter, Keys: sent, Graph: scope}},
		Dataset: ctx.dataset, FromNamed: ctx.fromNamed}
	if plan.index != "" && prev != plan.index {
		sub.TC = patTC.Child(0)
		got, done, err := e.forward(prev, plan.index, overlay.MethodDispatch, sub, now)
		if err != nil {
			return patternMatches{}, done, err
		}
		sub, now, prev, linkTC = got.(overlay.MatchReq), done, plan.index, sub.TC
	}

	acc := eval.NewMatches(keys, matchBound(plan, keys, unit))
	reached := prev
	for i, target := range seq {
		hop := overlay.ChainReq{Sub: sub, Acc: acc.Table(), Seq: addrsOf(seq[i+1:])}
		hop.Sub.TC = linkTC.Child(uint64(i + 1))
		got, done, err := e.forward(prev, target.Node, overlay.MethodChainHop, hop, now)
		now = done
		if err != nil {
			if errors.Is(err, simnet.ErrUnreachable) {
				e.dropStale(ctx, plan, target.Node, prev, hop.Sub.TC.Child(1), now)
				continue // forward from the same node to the next target
			}
			// A hop still lost after retries already surfaced as a typed
			// partial failure; any other error aborts the chain outright.
			return patternMatches{}, now, err
		}
		ctx.countSubquery(target.Node)
		// In-network aggregation with set-union semantics: merging at each
		// hop removes matches duplicated across providers before they
		// travel further (a round unions its replies at its assembly site).
		acc.Add(got.(eval.Table))
		prev = target.Node
		reached = target.Node
		linkTC = hop.Sub.TC
		if plan.stopOnFirst && acc.Len() > 0 {
			break
		}
	}
	if !rowsKeys && acc.Len() > 0 {
		var err error
		if seeds, now, err = e.ship(ctx, seeds, reached, overlay.MethodShip, now); err != nil {
			return patternMatches{}, now, err
		}
	}
	if ctx.rec != nil {
		ctx.opSpan(patTC, "dqp.pattern", string(ctx.initiator),
			e.opts.Strategy.String()+" "+plan.pattern.String()+keysNote(keys, unit), at, now)
	}
	return patternMatches{acc: acc, seeds: seeds.rows, rowsKeys: rowsKeys, site: reached}, now, nil
}

// keysNote is the dqp.pattern label's account of the keys: how many of the
// targets were sent them in place of the unit key (unitKeyed), empty when
// the keys are the unit key.
func keysNote(keys eval.Table, unit unitMask) string {
	if len(keys.Vars) == 0 {
		return ""
	}
	n := 0
	for _, u := range unit {
		if !u {
			n++
		}
	}
	return " keys " + strconv.Itoa(n) + "/" + strconv.Itoa(len(unit))
}

// projectKeys returns what a pattern's targets are asked for: keys, the
// distinct projection of the seeds onto the variables of their schema the
// pattern, or a GRAPH variable, shares, and per target whether it is sent
// the unit key in their place (unitKeyed). rowsKeys reports that the
// replies are the extended rows already: the seeds bind nothing else and
// every target is sent the keys. A target sent the unit key returns rows no
// seed agrees with as well, and only the join drops those.
func projectKeys(plan patternPlan, scope rdf.Term, seeds eval.Table, chain bool) (keys eval.Table, unit unitMask, rowsKeys bool) {
	var own [3]string
	var vars []string
	for _, v := range plan.pattern.AppendVars(own[:0]) {
		if slices.Contains(seeds.Vars, v) {
			vars = append(vars, v)
		}
	}
	if scope.IsVar() && slices.Contains(seeds.Vars, scope.Value) && !slices.Contains(vars, scope.Value) {
		vars = append(vars, scope.Value)
	}
	keys = eval.KeyTable(seeds, vars)
	unit = unitKeyed(keys, plan, scope, chain)
	return keys, unit, len(vars) == len(seeds.Vars) && !slices.Contains(unit, true)
}

// unitMask marks, by position in a plan's postings, the targets sent the
// unit key in place of the keys; nil marks none.
type unitMask []bool

func (m unitMask) has(i int) bool { return i < len(m) && m[i] }

// unitKeyed is the semi-join profitability test: it marks the targets of the
// plan that are sent the unit key in place of keys. Keys
// travel only where they are smaller than the rows they could spare,
//
//	keys.SizeBytes() < Freq × estimated reply row
//
// Freq being the Table I count of triples the target matches under the unit
// key and the row estimate the reply's columns — the pattern's variables,
// and a GRAPH variable scope it does not mention — bound to terms as large
// as the keys' are on average. The test is conservative — it holds the
// certain cost of the keys against the most they can save, as if they
// excluded every row — and it decides bytes only: whatever a target was
// sent, the join with the seeds gives the answer, so a stale or surplus
// frequency costs traffic, never a row. Under the basic strategy the choice
// is per target. A chain carries its keys on every hop, so there it is per
// pattern, the plan's postings being the hop sequence: what len(seq) copies
// of the keys cost against what the unit-key accumulation costs, each
// target's rows once per hop after it.
func unitKeyed(keys eval.Table, plan patternPlan, scope rdf.Term, chain bool) unitMask {
	if len(keys.Vars) == 0 {
		return nil // nothing to replace: the keys are the unit key
	}
	unit := make(unitMask, len(plan.postings))
	var own [4]string
	cols := plan.pattern.AppendVars(own[:0])
	if scope.IsVar() && !slices.Contains(cols, scope.Value) {
		cols = append(cols, scope.Value)
	}
	cost, row := keys.SizeBytes(), keys.RowEstimate(cols)
	if !chain {
		for i, p := range plan.postings {
			unit[i] = cost >= p.Freq*row
		}
		return unit
	}
	spared := 0
	for j, p := range plan.postings {
		spared += p.Freq * row * (len(plan.postings) - 1 - j)
	}
	if len(plan.postings)*cost >= spared {
		for i := range unit {
			unit[i] = true
		}
	}
	return unit
}

// matchBound is the number of rows the targets can return between them as
// far as that is known: under the unit key — the keys themselves when they
// have no variables — a posting's frequency counts the triples its node
// matches.
func matchBound(plan patternPlan, keys eval.Table, unit unitMask) int {
	n := 0
	for i, p := range plan.postings {
		if unit.has(i) || len(keys.Vars) == 0 {
			n += p.Freq
		}
	}
	return n
}

// patternMatches is one pattern's accumulated replies at site, the node
// that holds them together with seeds, the partial solutions they join
// with; rowsKeys as projectKeys reports it.
type patternMatches struct {
	acc      *eval.Matches
	seeds    eval.Table
	rowsKeys bool
	site     simnet.Addr
}

// result is the pattern's result: the replies themselves when they are the
// extended rows already, their join with the seeds otherwise.
func (p patternMatches) result() flatSet {
	if p.rowsKeys {
		return flatSet{rows: p.acc.Table(), site: p.site}
	}
	return flatSet{rows: p.acc.Join(p.seeds), site: p.site}
}

// orderTargets produces the chain sequence: address order (deterministic)
// or increasing frequency, with preferEnd moved to the back when present.
func orderTargets(postings []overlay.Posting, preferEnd simnet.Addr, byFreq bool) []overlay.Posting {
	seq := append([]overlay.Posting(nil), postings...)
	if byFreq {
		sort.Slice(seq, func(i, j int) bool {
			if seq[i].Freq != seq[j].Freq {
				return seq[i].Freq < seq[j].Freq
			}
			return seq[i].Node < seq[j].Node
		})
	} else {
		sort.Slice(seq, func(i, j int) bool { return seq[i].Node < seq[j].Node })
	}
	if preferEnd != "" {
		for i, p := range seq {
			if p.Node == preferEnd {
				seq = append(append(seq[:i], seq[i+1:]...), p)
				break
			}
		}
	}
	return seq
}

func addrsOf(ps []overlay.Posting) []simnet.Addr {
	out := make([]simnet.Addr, len(ps))
	for i, p := range ps {
		out[i] = p.Node
	}
	return out
}

// dropStale implements the Sect. III-D timeout cleanup: when a storage
// node does not acknowledge a sub-query, the site that observed the
// timeout notifies the pattern's index node, which drops the stale
// postings and forwards the retraction to its replica successors. The
// notification is fire-and-forget — the query never waits for cleanup —
// but it travels over the fabric, so retraction traffic is accounted and
// visible as Stats.RetractionBytes. tc is the notification's own context.
func (e *Engine) dropStale(ctx *qctx, plan patternPlan, node, observer simnet.Addr, tc trace.TraceContext, at simnet.VTime) {
	ctx.countDrop()
	e.cache.dropNode(node)
	if plan.index == "" {
		return
	}
	ctx.dropPostings(plan.index, node)
	// The timeout cleanup notification is accounted traffic but never
	// extends the query's critical path; a lost notification is repaired
	// by the next observer or by DropStorageEverywhere.
	e.sys.Net().Forward(observer, plan.index, overlay.MethodDropNode,
		overlay.DropNodeReq{Node: node, Propagate: true, TC: tc}, "", at)
}

// reorderPlans orders patterns by the location-table frequency statistics:
// most selective first, then greedily connected through shared variables —
// the distributed instantiation of the optimizer's join reordering.
func reorderPlans(plans []patternPlan) []patternPlan {
	byPattern := make(map[string]patternPlan, len(plans))
	pats := make([]rdf.Triple, len(plans))
	for i, p := range plans {
		pats[i] = p.pattern
		byPattern[p.pattern.String()] = p
	}
	est := planEstimator{byPattern: byPattern}
	ordered := optimize.ReorderPatterns(pats, est)
	out := make([]patternPlan, len(ordered))
	for i, pat := range ordered {
		out[i] = byPattern[pat.String()]
	}
	return out
}

// planEstimator adapts location-table frequencies to the optimizer's
// CardinalityEstimator.
type planEstimator struct {
	byPattern map[string]patternPlan
}

// EstimatePattern implements optimize.CardinalityEstimator.
func (e planEstimator) EstimatePattern(p rdf.Triple) int {
	if plan, ok := e.byPattern[p.String()]; ok {
		return plan.totalFreq()
	}
	return optimize.HeuristicEstimator{}.EstimatePattern(p)
}

// shippableFilter selects the not-yet-shipped conjuncts whose variables
// are all among bound and combines them into one expression; selected
// conjuncts are marked shipped.
func shippableFilter(conjuncts []sparql.Expression, shipped []bool, bound []string) sparql.Expression {
	var out sparql.Expression
	for i, c := range conjuncts {
		if shipped[i] {
			continue
		}
		ok := true
		for _, v := range c.Vars() {
			if !slices.Contains(bound, v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		shipped[i] = true
		if out == nil {
			out = c
		} else {
			out = &sparql.ExprAnd{Left: out, Right: c}
		}
	}
	return out
}
