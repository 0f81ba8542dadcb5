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
// BGP's result leaves its rows where its accumulator holds them (matches)
// until an operator needs them as one table, so a point query's matches
// become result mappings with no copy in between, and the right operand of
// a join, left join or union at their site is read where it lies.
type flatSet struct {
	rows    eval.Table
	matches eval.MatchSet
	site    simnet.Addr
}

// flat returns s with its rows in one table.
func (s flatSet) flat() flatSet {
	if s.matches.Rows != nil {
		s.rows, s.matches = s.matches.Table(), eval.MatchSet{}
	}
	return s
}

// vars is the schema of s's rows.
func (s flatSet) vars() []string {
	if s.matches.Rows != nil {
		return s.matches.Vars
	}
	return s.rows.Vars
}

// operand is one side of a binary merge as the join-site policies read it.
type operand struct {
	site        simnet.Addr
	bytes, rows int
}

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
		return e.execMerge(ctx, o.Left, o.Right, at, joinOp)
	case *algebra.LeftJoin:
		// OPTIONAL: the move-small placement of Sect. IV-E — but the left
		// operand is the semantic anchor, so the merge is not symmetric;
		// merge keeps operand order.
		return e.execMerge(ctx, o.Left, o.Right, at, binaryOp{
			tables:  func(a, b eval.Table) eval.Table { return eval.LeftJoinTables(a, b, o.Expr) },
			matches: func(b eval.MatchSet, a eval.Table) eval.Table { return b.LeftJoin(a, o.Expr) },
		})
	case *algebra.Union:
		return e.execMerge(ctx, o.Left, o.Right, at, binaryOp{tables: eval.UnionTables, matches: eval.MatchSet.Union})
	case *algebra.Project:
		in, done, err := e.exec(ctx, o.Input, at)
		if err != nil {
			return flatSet{}, done, err
		}
		// Keeping every column is the identity: a one-pattern BGP's matches
		// stay where they are.
		if slices.ContainsFunc(in.vars(), func(v string) bool { return !slices.Contains(o.Names, v) }) {
			in = in.flat()
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
// together as one wave (waveAll); exec then finds their results where the
// wave left them, at the initiator. A query with one BGP is planned by it.
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

// waveAll runs the BGPs of calls as one wave from the initiator once all of
// them are planned (execWave) and leaves their results in ctx.waved.
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
		in, done, err = e.ship(ctx, in, ctx.initiator, methodShip, done)
	}
	if err != nil {
		return flatSet{}, done, err
	}
	in = in.flat()
	in.rows = f(in.rows)
	return in, done, nil
}

// binaryOp is an operator merge applies: over two tables, and over a table
// and a one-pattern BGP's matches read where they lie, with the same result.
type binaryOp struct {
	tables  func(a, b eval.Table) eval.Table
	matches func(b eval.MatchSet, a eval.Table) eval.Table
}

var joinOp = binaryOp{tables: eval.JoinTables, matches: eval.MatchSet.Join}

// execMerge evaluates two operands starting at the same virtual time — the
// branches proceed in parallel on disjoint nodes, so each completes at its
// own time and the merge starts at the later one — and merges them.
func (e *Engine) execMerge(ctx *qctx, left, right algebra.Op, at simnet.VTime, op binaryOp) (flatSet, simnet.VTime, error) {
	l, lDone, err := e.exec(ctx, left, at)
	if err != nil {
		return flatSet{}, lDone, err
	}
	r, rDone, err := e.exec(ctx, right, at)
	if err != nil {
		return flatSet{}, rDone, err
	}
	return e.merge(ctx, l.flat(), r, simnet.MaxTime(lDone, rDone), op)
}

// merge brings both operands to one site per the join-site policy and
// applies op there — a join, a left join or a union above a BGP, a join of
// two partial results inside one. Operand order is preserved (op may be
// asymmetric, e.g. a left join). l is one table; r may be a one-pattern
// BGP's matches, which op reads in place when they are already at the site.
func (e *Engine) merge(ctx *qctx, l, r flatSet, at simnet.VTime, op binaryOp) (flatSet, simnet.VTime, error) {
	site := l.site
	if l.site != r.site {
		r = r.flat()
		site = e.pickJoinSite(ctx, l.operand(), r.operand(), func() bool {
			return slices.ContainsFunc(l.rows.Vars, func(v string) bool { return l.rows.Binds(v) && r.rows.Binds(v) })
		})
	}
	l, now, err := e.ship(ctx, l, site, methodShip, at)
	if err != nil {
		return flatSet{}, now, err
	}
	r, now, err = e.ship(ctx, r, site, methodShip, now)
	if err != nil {
		return flatSet{}, now, err
	}
	if r.matches.Rows != nil {
		return flatSet{rows: op.matches(r.matches, l.rows), site: site}, now, nil
	}
	return flatSet{rows: op.tables(l.rows, r.rows), site: site}, now, nil
}

// pickJoinSite implements the join-site selection strategies of Sect. II
// for operands on different sites. shared reports whether the operands bind
// a common variable; only the QoS policy's result estimate asks.
func (e *Engine) pickJoinSite(ctx *qctx, l, r operand, shared func() bool) simnet.Addr {
	switch e.opts.JoinSite {
	case JoinSiteQuerySite:
		return ctx.initiator
	case JoinSiteQoS:
		return e.pickQoSSite(ctx, l, r, shared())
	case JoinSiteThirdSite:
		// The paper's third-site strategy consults QoS monitors; with
		// uniform simulated links we pick the first live index node that
		// is neither operand site (deterministic).
		for _, n := range e.sys.IndexNodes() {
			a := n.Addr()
			if a != l.site && a != r.site && e.sys.Net().Alive(a) {
				return a
			}
		}
		return ctx.initiator
	default: // JoinSiteMoveSmall
		if l.bytes <= r.bytes {
			return r.site
		}
		return l.site
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

// ship moves a solution table to the destination site as one transfer
// message, charged what the same rows cost as mappings. Shipping to the
// current site is free. A transfer that stays lost after retries strands
// the intermediate result, so it surfaces as a partial-failure error instead
// of an incomplete answer.
func (e *Engine) ship(ctx *qctx, s flatSet, dest simnet.Addr, method string, at simnet.VTime) (flatSet, simnet.VTime, error) {
	if s.site == dest || s.site == "" {
		s.site = dest
		return s, at, nil
	}
	s = s.flat()
	done, err := e.transferRetry(s.site, dest, method, rowsPayload{Rows: s.rows, TC: ctx.nextTC(ctx.tc)}, at)
	if err != nil {
		return flatSet{}, done, err
	}
	s.site = dest
	return s, done, nil
}

// transferRetry is a retried Transfer whose loss past the retry budget
// surfaces as a partial-failure error (other errors pass through for the
// caller to classify).
func (e *Engine) transferRetry(from, to simnet.Addr, method string, payload simnet.Payload, at simnet.VTime) (simnet.VTime, error) {
	done, err := e.sys.Net().TransferRetry(from, to, method, payload, at)
	if err != nil && simnet.IsLost(err) {
		err = &PartialFailureError{Method: method, Missing: []simnet.Addr{to}, Err: err}
	}
	return done, err
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

func (p patternPlan) targetAddrs() []simnet.Addr {
	out := make([]simnet.Addr, len(p.postings))
	for i, q := range p.postings {
		out[i] = q.Node
	}
	return out
}

// planKeys resolves the keys ctx holds no row for yet, in one planning
// round from the initiator through the two-level index — route to the
// responsible index node (level one), read the location-table row (level
// two) — and keeps the rows in ctx for every BGP of the query. A key the
// lookup cache holds under a live index node is ready at once; the others
// go to the lookup client together (overlay.LookupClient.LookupBatch): a
// lone key is one find_successor and one index.lookup, several are one
// find_successor_batch and one index.lookup per owner. A key's row is ready
// when its read is in; the round's cost is part of the query cost.
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

// lookupFailure types a failed planning round: a step still lost after its
// retries is a partial failure naming the step's method and, for a read,
// the index node asked.
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
	plans, conjuncts := b.plans, b.conjuncts
	if len(plans) == 1 {
		// One pattern — every primitive query, the inner side of most
		// OPTIONALs and UNIONs — is the bypass: its matches are the result.
		push := shippableFilter(conjuncts, make([]bool, len(conjuncts)), varSet(plans[0].pattern))
		m, done, err := e.execPattern(ctx, plans[0], ctx.unitSeed(), push, scope, "", now)
		if err != nil {
			return flatSet{}, done, err
		}
		return matchResult(m.acc, filter, m.site), done, nil
	}
	var out flatSet
	if e.opts.Conjunction == ConjParallelJoin {
		out, now, err = e.execParallelJoin(ctx, plans, conjuncts, scope, now)
	} else {
		out, now, err = e.execPipeline(ctx, plans, conjuncts, scope, now)
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

// matchResult is a one-pattern BGP's result at site: its matches in place,
// or under a filter a table of those that pass it — every conjunct not
// shipped with the pattern included — copied from where they lie.
func matchResult(acc *eval.Matches, filter sparql.Expression, site simnet.Addr) flatSet {
	if filter != nil {
		return flatSet{rows: acc.Set().Filter(filter), site: site}
	}
	return flatSet{matches: acc.Set(), site: site}
}

// solutionsOf is where a query's result rows become mappings, and the one
// place in dqp that builds them: runPlan calls it once, on the rows it
// returns. A mapping binds its row's bound cells only; a one-pattern BGP's
// matches are read in place.
func solutionsOf(s flatSet) eval.Solutions {
	vars, n := s.rows.Vars, s.rows.N
	if s.matches.Rows != nil {
		vars, n = s.matches.Vars, len(s.matches.Rows)
	}
	if n == 0 {
		return nil
	}
	out := make(eval.Solutions, n)
	for i := range out {
		var row []rdf.Term
		if s.matches.Rows != nil {
			row = s.matches.Rows[i]
		} else {
			row = s.rows.Row(i)
		}
		b := make(eval.Binding, len(vars))
		for c, v := range vars {
			if !row[c].IsZero() {
				b[v] = row[c]
			}
		}
		out[i] = b
	}
	return out
}

// varSet is the set of variables a pattern mentions.
func varSet(pat rdf.Triple) map[string]bool {
	vars := map[string]bool{}
	for _, v := range pat.Vars() {
		vars[v] = true
	}
	return vars
}

// execPipeline runs the sequential conjunction of Sect. IV-D basic
// processing as a distributed semi-join: each pattern is asked only for
// the distinct values the accumulated solutions give the variables it
// shares with them, and its matches are joined with the full solutions at
// the site that assembles them (execPattern). A filter conjunct ships with
// the first pattern that covers it alone; one that also needs a variable of
// an earlier pattern applies after that join.
func (e *Engine) execPipeline(ctx *qctx, plans []patternPlan, conjuncts []sparql.Expression, scope rdf.Term, at simnet.VTime) (flatSet, simnet.VTime, error) {
	cur := ctx.unitSeed()
	now := at
	bound := map[string]bool{}
	shipped := make([]bool, len(conjuncts))
	for i := range plans {
		own := varSet(plans[i].pattern)
		for v := range own {
			bound[v] = true
		}
		push := shippableFilter(conjuncts, shipped, own)
		after := shippableFilter(conjuncts, shipped, bound)
		m, done, err := e.execPattern(ctx, plans[i], cur, push, scope, "", now)
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
// chain strategies (basic runs it as execWave): every pattern is evaluated
// over its own target set in parallel from the unit seed, chains are ordered
// to end at a storage node shared with the neighbouring pattern when one
// exists, and the per-pattern results are joined left to right at assembly
// sites.
func (e *Engine) execParallelJoin(ctx *qctx, plans []patternPlan, conjuncts []sparql.Expression, scope rdf.Term, at simnet.VTime) (flatSet, simnet.VTime, error) {
	results := make([]flatSet, len(plans))
	times := make([]simnet.VTime, len(plans))
	shipped := make([]bool, len(conjuncts))
	for i := range plans {
		// Per-pattern filters: conjuncts covered by this pattern alone.
		f := shippableFilter(conjuncts, shipped, varSet(plans[i].pattern))
		// Prefer ending this pattern's chain at a node shared with the
		// previous pattern's target set, so the join needs no shipping.
		prefer := simnet.Addr("")
		if i > 0 {
			prefer = sharedTarget(plans[i-1], plans[i])
		}
		m, done, err := e.execPattern(ctx, plans[i], ctx.unitSeed(), f, scope, prefer, at)
		if err != nil {
			return flatSet{}, done, err
		}
		results[i] = m.result()
		times[i] = done
	}
	cur, now := results[0], times[0]
	for i := 1; i < len(plans); i++ {
		var err error
		cur, now, err = e.merge(ctx, cur, results[i], simnet.MaxTime(now, times[i]), joinOp)
		if err != nil {
			return flatSet{}, now, err
		}
	}
	return cur, now, nil
}

// execWave runs the parallel-join conjunction under the basic strategy as
// one wave from the initiator, which holds every pattern's location-table
// row once planning is done, for one BGP or for all the BGPs of a query
// (waveAll). Every pattern leaves at once from the unit seed with the filter
// conjuncts it covers alone; each target is sent one store.match carrying a
// unit for every pattern, of every BGP, that lists it and answers with one
// table per unit; each BGP's pattern results are joined left to right where
// the replies land, at the initiator (Sect. IV-C basic fan-out, Sect. IV-D
// parallel evaluation). A BGP with a pattern no provider lists is empty and
// sends nothing. ASK over one pattern is the one exception to "at once":
// the first match settles it, so the targets are asked one after another,
// each when the one before answered empty. out[i] receives bgps[i]'s result,
// complete when the last reply carrying one of its units is in.
//
//adhoclint:faultpath(benign, out holds the caller's result slots, dropped when the wave fails)
func (e *Engine) execWave(ctx *qctx, bgps []bgpPlan, out []bgpResult, at simnet.VTime) (simnet.VTime, error) {
	// plans is every pattern of the wave, BGP after BGP, and pats[i] is
	// plans[i]'s BGP, unit, op span, replies by posting and when the last of
	// them was in. A BGP with a pattern no provider lists is left out.
	type wavePattern struct {
		bgp     int
		unit    overlay.MatchUnit
		tc      trace.TraceContext
		replies []eval.Table
		end     simnet.VTime
	}
	unlisted := func(p patternPlan) bool { return len(p.postings) == 0 }
	plans := bgps[0].plans
	if len(bgps) > 1 || slices.ContainsFunc(plans, unlisted) {
		plans = nil
		for _, w := range bgps {
			if !slices.ContainsFunc(w.plans, unlisted) {
				plans = append(plans, w.plans...)
			}
		}
	}
	if len(plans) == 0 {
		for b := range bgps {
			out[b] = bgpResult{set: flatSet{site: ctx.initiator}, done: at}
		}
		return at, nil
	}
	pats := make([]wavePattern, 0, len(plans))
	n := 0
	for b, w := range bgps {
		out[b] = bgpResult{set: flatSet{site: ctx.initiator}, done: at}
		if slices.ContainsFunc(w.plans, unlisted) {
			continue
		}
		shipped := make([]bool, len(w.conjuncts))
		for _, p := range w.plans {
			pats = append(pats, wavePattern{bgp: b,
				unit: overlay.MatchUnit{Pattern: p.pattern, Keys: eval.Table{N: 1}, Graph: w.scope,
					Filter: shippableFilter(w.conjuncts, shipped, varSet(p.pattern))},
				tc: ctx.nextTC(ctx.tc), replies: make([]eval.Table, len(p.postings)), end: at,
			})
			n += len(p.postings)
		}
	}
	targets := waveTargets(plans)
	// The requests' units, target after target, filled before any is sent.
	units := make([]overlay.MatchUnit, 0, n)
	for _, t := range targets {
		for _, u := range t.units {
			units = append(units, pats[u.plan].unit)
		}
	}
	sequential := len(plans) == 1 && plans[0].stopOnFirst
	start, done := at, at
	for _, t := range targets {
		sent := units[:len(t.units):len(t.units)]
		units = units[len(t.units):]
		// The request is a message span of its first unit's pattern, as a
		// one-pattern fan-out's requests are; sequence 0 is left unused.
		first := t.units[0]
		req := overlay.MatchReq{Units: sent, Dataset: ctx.dataset, FromNamed: ctx.fromNamed,
			TC: pats[first.plan].tc.Child(uint64(first.posting + 1))}
		resp, end, err := e.sys.Net().CallRetry(ctx.initiator, t.node, overlay.MethodMatch, req, start)
		done = simnet.MaxTime(done, end)
		for _, u := range t.units {
			pats[u.plan].end = simnet.MaxTime(pats[u.plan].end, end)
		}
		if sequential {
			start = end
		}
		if err != nil {
			if simnet.IsLost(err) {
				// The target is alive but the link stayed lossy past the
				// retry budget: dropping its contribution would silently
				// truncate the result, so the query fails explicitly.
				return end, &PartialFailureError{
					Method: overlay.MethodMatch, Missing: []simnet.Addr{t.node}, Err: err}
			}
			// Unreachable target: its triples left the dataset; every
			// pattern listing it drops the stale posting, and the answer is
			// over the remaining providers.
			for k, u := range t.units {
				e.dropStale(ctx, plans[u.plan], t.node, ctx.initiator, req.TC.Child(uint64(k+1)), end)
			}
			continue
		}
		tables := resp.(overlay.MatchResp).Tables
		for k, u := range t.units {
			ctx.countSubquery(t.node)
			pats[u.plan].replies[u.posting] = tables[k]
		}
		if sequential && tables[0].N > 0 {
			break // existence settled: the remaining targets are not asked
		}
	}
	// Each pattern's replies are accumulated in its postings order, so its
	// rows come in the order a fan-out of its own would give them; a BGP's
	// pattern results are joined left to right, each later pattern's matches
	// where its accumulator holds them.
	for i := 0; i < len(pats); {
		b := pats[i].bgp
		w := bgps[b]
		var rows eval.Table
		for k := range w.plans {
			p := &pats[i+k]
			acc := eval.NewMatches(p.unit.Keys, plans[i+k].totalFreq())
			for _, t := range p.replies {
				acc.Add(t)
			}
			if ctx.rec != nil {
				ctx.opSpan(p.tc, "dqp.pattern", string(ctx.initiator),
					e.opts.Strategy.String()+" "+plans[i+k].pattern.String(), at, p.end)
			}
			out[b].done = simnet.MaxTime(out[b].done, p.end)
			switch {
			case len(w.plans) == 1:
				out[b].set = matchResult(acc, w.filter, ctx.initiator)
			case k == 0:
				rows = acc.Table()
			default:
				rows = acc.Set().Join(rows)
			}
		}
		if len(w.plans) > 1 {
			// Conjuncts referring to variables of several patterns were never
			// shipped; the whole filter applies, idempotent for the shipped
			// ones.
			out[b].set = flatSet{rows: rows.Filter(w.filter), site: ctx.initiator}
		}
		i += len(w.plans)
	}
	return done, nil
}

// waveUnit is one (pattern, target) pair of a wave: the plan and the
// target's position in the plan's postings.
type waveUnit struct{ plan, posting int }

// waveTarget is one store.match of a wave: a target and the units it is
// asked for, in plan order.
type waveTarget struct {
	node  simnet.Addr
	units []waveUnit
}

// waveTargets groups the plans' postings by target, targets in the order
// the plans first list them.
func waveTargets(plans []patternPlan) []waveTarget {
	out := make([]waveTarget, 0, len(plans[0].postings))
	at := make(map[simnet.Addr]int, len(plans[0].postings))
	for i, p := range plans {
		for fi, q := range p.postings {
			k, ok := at[q.Node]
			if !ok {
				k = len(out)
				at[q.Node] = k
				out = append(out, waveTarget{node: q.Node})
			}
			out[k].units = append(out[k].units, waveUnit{plan: i, posting: fi})
		}
	}
	return out
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

// execPattern evaluates one triple pattern over its target storage nodes
// according to the per-pattern strategy and accumulates the matches where
// they can be joined with seeds, the partial solutions so far. What a target
// is asked for is keys, the distinct projection of the seeds onto the
// variables the pattern (or a GRAPH variable) shares with them; what comes
// back binds the pattern's variables only. Three cases follow from the
// seeds, none from a setting: the unit seed gives the unit key and the
// replies are the result; seeds sharing no variable with the pattern give
// the unit key too and the result is the cross product; seeds binding only
// variables the pattern mentions are their own keys, so the replies are the
// extended rows and no join runs. A fourth follows from the location table:
// a target whose keys would outweigh the rows they can spare it from
// returning is sent the unit key in their place (unitKeyed), and the join
// with the seeds does the excluding. preferEnd forces a chain to end at the
// given target when present (overlap-aware assembly).
func (e *Engine) execPattern(ctx *qctx, plan patternPlan, seeds flatSet, filter sparql.Expression, scope rdf.Term, preferEnd simnet.Addr, at simnet.VTime) (patternMatches, simnet.VTime, error) {
	if len(plan.postings) == 0 || seeds.rows.N == 0 {
		return patternMatches{acc: eval.NewMatches(eval.Table{}, 0), rowsKeys: true, site: seeds.site}, at, nil
	}
	chain := e.opts.Strategy != StrategyBasic
	if chain {
		plan.postings = orderTargets(plan.postings, preferEnd, e.opts.Strategy == StrategyFreqChain)
	}
	keys, unit, rowsKeys := projectKeys(plan, scope, seeds.rows, chain)
	// Every pattern execution is one op span; the strategy implementations
	// hang their message spans off patTC, so the three strategies render as
	// the three Fig. 5 flow shapes (star, chain, frequency-ordered chain).
	patTC := ctx.nextTC(ctx.tc)
	var (
		out  patternMatches
		done simnet.VTime
		err  error
	)
	if chain {
		out, done, err = e.execPatternChain(ctx, plan, seeds, keys, unit, rowsKeys, filter, scope, patTC, at)
	} else {
		out, done, err = e.execPatternBasic(ctx, plan, seeds, keys, unit, rowsKeys, filter, scope, patTC, at)
	}
	if err == nil && ctx.rec != nil {
		// the label says how many of the targets unitKeyed sent the keys to
		sentKeys := ""
		if len(keys.Vars) > 0 {
			n := 0
			for _, u := range unit {
				if !u {
					n++
				}
			}
			sentKeys = " keys " + strconv.Itoa(n) + "/" + strconv.Itoa(len(unit))
		}
		ctx.opSpan(patTC, "dqp.pattern", string(ctx.initiator),
			e.opts.Strategy.String()+" "+plan.pattern.String()+sentKeys, at, done)
	}
	return out, done, err
}

// projectKeys returns what a pattern's targets are asked for: keys, the
// distinct projection of the seeds onto the variables of their schema the
// pattern, or a GRAPH variable, shares, and per target whether it is sent
// the unit key in their place (unitKeyed). rowsKeys reports that the
// replies are the extended rows already: the seeds bind nothing else and
// every target is sent the keys. A target sent the unit key returns rows no
// seed agrees with as well, and only the join drops those.
func projectKeys(plan patternPlan, scope rdf.Term, seeds eval.Table, chain bool) (keys eval.Table, unit unitMask, rowsKeys bool) {
	var vars []string
	for _, v := range plan.pattern.Vars() {
		if slices.Contains(seeds.Vars, v) {
			vars = append(vars, v)
		}
	}
	if scope.IsVar() && slices.Contains(seeds.Vars, scope.Value) && !slices.Contains(vars, scope.Value) {
		vars = append(vars, scope.Value)
	}
	keys = eval.KeyTable(seeds, vars)
	unit = unitKeyed(keys, plan, chain)
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
// key and the row estimate the pattern's variables bound to terms as large
// as the keys' are on average. The test is conservative — it holds the
// certain cost of the keys against the most they can save, as if they
// excluded every row — and it decides bytes only: whatever a target was
// sent, the join with the seeds gives the answer, so a stale or surplus
// frequency costs traffic, never a row. Under the basic strategy the choice
// is per target. A chain carries its keys on every hop, so there it is per
// pattern, the plan's postings being the hop sequence: what len(seq) copies
// of the keys cost against what the unit-key accumulation costs, each
// target's rows once per hop after it.
func unitKeyed(keys eval.Table, plan patternPlan, chain bool) unitMask {
	if len(keys.Vars) == 0 {
		return nil // nothing to replace: the keys are the unit key
	}
	unit := make(unitMask, len(plan.postings))
	cost, row := keys.SizeBytes(), keys.RowEstimate(plan.pattern.Vars())
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

// execPatternBasic, the pipeline's basic step: the sub-query ships with the
// partial solutions to the pattern's index node, which projects the keys,
// fans them out to every target in parallel — the unit key to the targets
// unitKeyed names — and joins the union of the replies with the rows it was
// handed (Sect. IV-C basic). High parallelism and every reply travels back,
// but keys go out only where they pay and only the pattern's own matches
// come in: low response time and the fewest bytes of any pipeline.
func (e *Engine) execPatternBasic(ctx *qctx, plan patternPlan, seeds flatSet, keys eval.Table, unit unitMask, rowsKeys bool, filter sparql.Expression, scope rdf.Term, patTC trace.TraceContext, at simnet.VTime) (patternMatches, simnet.VTime, error) {
	assembly := plan.index
	if assembly == "" { // flooding: assemble at the seeds' current site
		assembly = seeds.site
	}
	keyed := []overlay.MatchUnit{{Pattern: plan.pattern, Filter: filter, Keys: keys, Graph: scope}}
	base := overlay.MatchReq{Units: keyed, Dataset: ctx.dataset, FromNamed: ctx.fromNamed}
	now := at
	if seeds.site != assembly {
		dispatch := dispatchPayload{Sub: base, Rows: seeds.rows}
		dispatch.Sub.TC = patTC.Child(0)
		done, err := e.transferRetry(seeds.site, assembly, methodDispatch, dispatch, now)
		if err != nil {
			return patternMatches{}, done, err
		}
		now = done
	}
	unitKey := keyed
	if unit != nil {
		unitKey = []overlay.MatchUnit{{Pattern: plan.pattern, Filter: filter, Keys: eval.Table{N: 1}, Graph: scope}}
	}
	acc := eval.NewMatches(keys, matchBound(plan, keys, unit))
	finish := now
	for fi, p := range plan.postings {
		// Star topology: every fan-out request is a fresh copy of the
		// sub-query and a sibling child of the pattern span (sequence 0 is
		// the dispatch above).
		req := base
		req.TC = patTC.Child(uint64(fi + 1))
		if unit.has(fi) {
			req.Units = unitKey
		}
		resp, done, err := e.sys.Net().CallRetry(assembly, p.Node, overlay.MethodMatch, req, now)
		finish = simnet.MaxTime(finish, done)
		if plan.stopOnFirst {
			// ASK over one pattern asks one target at a time, each when the
			// one before answered empty: fewer messages, sequential latency
			now = done
		}
		if err != nil {
			if simnet.IsLost(err) {
				// The target is alive but the link stayed lossy past the
				// retry budget: dropping its contribution would silently
				// truncate the result, so the query fails explicitly.
				return patternMatches{}, done, &PartialFailureError{
					Method: overlay.MethodMatch, Missing: []simnet.Addr{p.Node}, Err: err}
			}
			// Unreachable target: its triples left the dataset; drop the
			// stale postings and answer over the remaining providers.
			e.dropStale(ctx, plan, p.Node, assembly, req.TC.Child(1), done)
			continue
		}
		ctx.countSubquery(p.Node)
		acc.Add(resp.(overlay.MatchResp).Tables[0])
		if plan.stopOnFirst && acc.Len() > 0 {
			break // existence settled: the remaining targets are not asked
		}
	}
	return patternMatches{acc: acc, seeds: seeds.rows, rowsKeys: rowsKeys, site: assembly}, finish, nil
}

// execPatternChain: the sub-query, its keys and the matches accumulated so
// far forward through the plan's postings, which execPattern has put in hop
// order; each node adds its local matches and passes the set on; the final
// node keeps it and becomes the new site. The keys ride every hop, so
// unitKeyed replaces them for all targets or none. When the replies are not
// the result already, the partial solutions travel once, from where they
// are to that final node, and are joined with the matches there.
func (e *Engine) execPatternChain(ctx *qctx, plan patternPlan, seeds flatSet, keys eval.Table, unit unitMask, rowsKeys bool, filter sparql.Expression, scope rdf.Term, patTC trace.TraceContext, at simnet.VTime) (patternMatches, simnet.VTime, error) {
	seq := plan.postings
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
	// (vs. the basic strategy's star).
	linkTC := patTC
	if plan.index != "" && prev != plan.index {
		dispatchTC := patTC.Child(0)
		done, err := e.transferRetry(prev, plan.index, methodDispatch,
			overlay.MatchReq{Units: []overlay.MatchUnit{{Pattern: plan.pattern, Filter: filter, Keys: sent, Graph: scope}},
				Dataset: ctx.dataset, FromNamed: ctx.fromNamed, TC: dispatchTC}, now)
		if err != nil {
			return patternMatches{}, done, err
		}
		now = done
		prev = plan.index
		linkTC = dispatchTC
	}

	acc := eval.NewMatches(keys, matchBound(plan, keys, unit))
	reached := prev
	for i, target := range seq {
		hopTC := linkTC.Child(uint64(i + 1))
		payload := chainPayload{
			Pattern:   plan.pattern,
			Filter:    filter,
			Keys:      sent,
			Acc:       acc.Set(),
			Seq:       addrsOf(seq[i+1:]),
			Dataset:   ctx.dataset,
			Graph:     scope,
			FromNamed: ctx.fromNamed,
			TC:        hopTC,
		}
		done, err := e.transferRetry(prev, target.Node, overlay.MethodChainHop, payload, now)
		now = done
		if err != nil {
			if errors.Is(err, simnet.ErrUnreachable) {
				e.dropStale(ctx, plan, target.Node, prev, hopTC.Child(1), now)
				continue // forward from the same node to the next target
			}
			// A hop still lost after retries already surfaced as a typed
			// partial failure; any other error aborts the chain outright.
			return patternMatches{}, now, err
		}
		st, ok := e.sys.Storage(target.Node)
		if !ok {
			continue
		}
		ctx.countSubquery(target.Node)
		// In-network aggregation with set-union semantics: merging at each
		// hop removes matches duplicated across providers before they
		// travel further (the dedup counterpart of execPatternBasic).
		acc.Add(st.MatchKeys(payload.Pattern, payload.Filter, payload.Keys, payload.Dataset, payload.FromNamed, payload.Graph))
		prev = target.Node
		reached = target.Node
		linkTC = hopTC
		if plan.stopOnFirst && acc.Len() > 0 {
			break
		}
	}
	if !rowsKeys && acc.Len() > 0 {
		var err error
		if seeds, now, err = e.ship(ctx, seeds, reached, methodShip, now); err != nil {
			return patternMatches{}, now, err
		}
	}
	return patternMatches{acc: acc, seeds: seeds.rows, rowsKeys: rowsKeys, site: reached}, now, nil
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
	//adhoclint:faultpath(fire-and-forget, the timeout cleanup notification is accounted traffic but never extends the query's critical path; a lost notification is repaired by the next observer or by DropStorageEverywhere)
	e.sys.Net().Send(observer, plan.index, overlay.MethodDropNode,
		overlay.DropNodeReq{Node: node, Propagate: true, TC: tc}, at)
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
// are covered by bound and combines them into one expression; selected
// conjuncts are marked shipped.
//
//adhoclint:faultpath(benign, marks query-scoped scratch; an error discards the whole query context)
func shippableFilter(conjuncts []sparql.Expression, shipped []bool, bound map[string]bool) sparql.Expression {
	var out sparql.Expression
	for i, c := range conjuncts {
		if shipped[i] {
			continue
		}
		ok := true
		for _, v := range c.Vars() {
			if !bound[v] {
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
