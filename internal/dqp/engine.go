package dqp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/trace"
)

// Engine executes SPARQL queries over a hybrid overlay deployment,
// implementing the workflow of the paper's Fig. 3.
type Engine struct {
	sys   *overlay.System
	opts  Options
	cache *lookupCache
	// hot is the lookup entry point: the paper's resolve-then-read path on
	// a static system, the replica-preferring adaptive path when
	// overlay.Config.Adaptive is on (it learns hot-replica advertisements
	// per engine, mirroring the per-initiator lookup cache).
	hot *overlay.LookupClient
}

// NewEngine creates an engine over the given deployment. An engine holds
// per-initiator state (the optional lookup cache), so reuse one engine per
// querying node to benefit from caching.
func NewEngine(sys *overlay.System, opts Options) *Engine {
	return &Engine{sys: sys, opts: opts, cache: newLookupCache(0), hot: overlay.NewLookupClient(sys)}
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Result is the outcome of one query.
type Result struct {
	// Vars are the projected variable names (SELECT).
	Vars []string
	// Solutions is the final solution sequence.
	Solutions eval.Solutions
	// IsAsk marks an ASK query; Ask is its boolean answer.
	IsAsk bool
	Ask   bool
	// Triples carries CONSTRUCT/DESCRIBE output.
	Triples []rdf.Triple
}

// qctx threads per-query execution state: the engine-side accounting that
// is not derivable from the traffic the fabric attributes to the query.
type qctx struct {
	initiator simnet.Addr
	// dataset carries the query's FROM graph IRIs (nil = the union of all
	// shared triples, Sect. IV-A); fromNamed the FROM NAMED IRIs available
	// to GRAPH patterns.
	dataset   []string
	fromNamed []string
	// existenceOnly marks ASK queries whose plan cannot discard a
	// solution of its basic graph pattern (firstSolutionSettles): a
	// single-pattern execution may stop at the first one.
	existenceOnly bool
	hops          int
	subq          int
	targets       map[simnet.Addr]bool
	drops         int
	cacheHits     int
	replicaHits   int
	// rows holds the query's planned location-table rows by index key, from
	// its planning round on (planKeys); waved holds the results of the BGPs
	// the query's wave ran (waveAll), for exec to find.
	rows  []resolvedRow
	waved map[*algebra.BGP]bgpResult
	// rowBuf is rows' first backing array, room for a typical query's keys.
	rowBuf [1]resolvedRow
	// rec is the span recorder (nil = tracing disabled, read once in
	// newQctx); tc is the query's root trace context — always allocated,
	// it is what the fabric attributes the query's traffic by — and seq the
	// serial child allocator, never incremented inside Parallel branches:
	// those derive from the branch index, and the trace goldens pin the
	// resulting span identifiers.
	rec trace.Recorder
	tc  trace.TraceContext
	seq uint64
	// flt is the flight recorder (nil = disabled, read once in newQctx);
	// query stage transitions land in the initiator's event ring.
	flt *flight.Recorder
}

// stage flight-records one query stage transition at the initiator.
//
//adhoclint:faultpath(benign, observation only; the stage events of a failed query are the record of that failure)
func (c *qctx) stage(name string, start, end simnet.VTime) {
	if c.flt == nil {
		return
	}
	c.flt.Emit(flight.Event{
		Node:   string(c.initiator),
		Kind:   flight.KindStage,
		VT:     int64(start),
		End:    int64(end),
		Method: name,
		Query:  c.tc.Query,
	})
}

// nextTC derives the next serial child context of a parent span. Inside
// simnet.Parallel branches derive from the branch index instead: calling
// nextTC there would renumber every later span and move the trace goldens.
//
//adhoclint:faultpath(benign, trace-span counter; a span identifier wasted by a failed operation is unobservable)
func (c *qctx) nextTC(parent trace.TraceContext) trace.TraceContext {
	c.seq++
	return parent.Child(c.seq)
}

// countSubquery records one answered sub-query against a provider.
//
//adhoclint:faultpath(benign, query-scoped statistics; discarded with the context when the query fails)
func (c *qctx) countSubquery(target simnet.Addr) {
	c.subq++
	c.targets[target] = true
}

// countDrop records one stale-posting cleanup triggered by this query.
//
//adhoclint:faultpath(benign, query-scoped statistics; discarded with the context when the query fails)
func (c *qctx) countDrop() {
	c.drops++
}

// countLookup records one location-table lookup's routing cost.
//
//adhoclint:faultpath(benign, query-scoped statistics; discarded with the context when the query fails)
func (c *qctx) countLookup(hops int, hit bool) {
	c.hops += hops
	if hit {
		c.cacheHits++
	}
}

// resolvedRow is one index key's planned resolution: the responsible index
// node, its location-table row and when the row reached the initiator.
type resolvedRow struct {
	key      chord.ID
	index    simnet.Addr
	postings []overlay.Posting
	ready    simnet.VTime
}

// unplanned reports whether the query holds no row for key yet.
func (c *qctx) unplanned(key chord.ID) bool {
	return !slices.ContainsFunc(c.rows, func(r resolvedRow) bool { return r.key == key })
}

// row returns the query's planned row for key.
func (c *qctx) row(key chord.ID) resolvedRow {
	i := slices.IndexFunc(c.rows, func(r resolvedRow) bool { return r.key == key })
	return c.rows[i]
}

// keepRow records a key's planned row for the rest of the query.
//
//adhoclint:faultpath(benign, query-scoped planning state; discarded with the context when the query fails)
func (c *qctx) keepRow(row resolvedRow) {
	c.rows = append(c.rows, row)
}

// keepWave records the results of the BGPs the query's wave ran, results[i]
// being calls[i]'s.
//
//adhoclint:faultpath(benign, query-scoped results; discarded with the context when the query fails)
func (c *qctx) keepWave(calls []bgpCall, results []bgpResult) {
	c.waved = make(map[*algebra.BGP]bgpResult, len(calls))
	for i, call := range calls {
		c.waved[call.bgp] = results[i]
	}
}

// dropPostings removes node from every planned row index holds: a stale
// provider the query found dead and told index about is not asked again by
// a later BGP of the query, as a fresh lookup there would not list it.
//
//adhoclint:faultpath(benign, query-scoped planning state; discarded with the context when the query fails)
func (c *qctx) dropPostings(index, node simnet.Addr) {
	for i, row := range c.rows {
		if row.index == index {
			c.rows[i].postings = slices.DeleteFunc(slices.Clone(row.postings), func(p overlay.Posting) bool { return p.Node == node })
		}
	}
}

// countReplicaHit records one lookup served by a hot-key replica holder.
//
//adhoclint:faultpath(benign, query-scoped statistics; discarded with the context when the query fails)
func (c *qctx) countReplicaHit() {
	c.replicaHits++
}

// opSpan records an engine-level operation span when tracing is enabled.
func (c *qctx) opSpan(tc trace.TraceContext, name, site, note string, start, end simnet.VTime) {
	if c.rec == nil {
		return
	}
	c.rec.Record(trace.Span{
		Query:  tc.Query,
		ID:     tc.Span,
		Parent: tc.Parent,
		Kind:   trace.KindOp,
		Name:   name,
		From:   site,
		Start:  int64(start),
		End:    int64(end),
		Note:   note,
	})
}

// Query parses, optimizes and executes a query issued by the given
// initiator node at virtual time at. It returns the result, cost
// statistics and the virtual completion time.
func (e *Engine) Query(initiator simnet.Addr, query string, at simnet.VTime) (*Result, Stats, simnet.VTime, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, Stats{}, at, err
	}
	return e.Run(initiator, q, at)
}

// Run executes an already-parsed query.
func (e *Engine) Run(initiator simnet.Addr, q *sparql.Query, at simnet.VTime) (*Result, Stats, simnet.VTime, error) {
	op, err := e.plan(q)
	if err != nil {
		return nil, Stats{}, at, err
	}
	ctx := e.newQctx(initiator, q)
	ctx.existenceOnly = q.Form == sparql.FormAsk && e.firstSolutionSettles(op)
	var (
		out  *Result
		done simnet.VTime
	)
	if op == nil {
		out, done, err = e.runBareDescribe(ctx, q, at)
	} else {
		out, done, err = e.runPlan(ctx, q, op, at)
	}
	traffic := e.sys.Net().UntrackQuery(ctx.tc.Query)
	if err != nil {
		return nil, Stats{}, done, err
	}
	ctx.countLookup(e.batchForwards(initiator, traffic), false)
	return out, ctx.stats(traffic, len(out.Solutions), at, done), done, nil
}

// batchForwards is the number of ring forwards the query's batched key
// resolution made — a query forms at most one batch, in its planning round,
// as a DESCRIBE's resources resolve one at a time — read off the query's
// find_successor_batch traffic: a call is a request and a reply leg, and the
// initiator's own call to its ring entry point is not a forward (an index
// node is its own entry point and makes none). A route prefix several keys
// share is one forward; a forward re-sent after a loss counts again.
func (e *Engine) batchForwards(initiator simnet.Addr, traffic simnet.QueryTraffic) int {
	calls := int(traffic.PerMethod[chord.MethodFindSuccessorBatch].Messages / 2)
	if _, own := e.sys.Index(initiator); calls > 0 && !own {
		calls--
	}
	return calls
}

// firstSolutionSettles reports whether one solution of the plan's basic
// graph pattern proves the plan non-empty: the BGP is the root under
// modifiers that keep a non-empty sequence non-empty, alone or under a
// filter that ships whole with its sub-queries. Anything else between the
// BGP and the root (a join, an OPTIONAL's filter, a filter applied where
// the solutions land) may discard the row a provider returns first.
func (e *Engine) firstSolutionSettles(op algebra.Op) bool {
	for {
		switch o := op.(type) {
		case *algebra.Project:
			op = o.Input
		case *algebra.Distinct:
			op = o.Input
		case *algebra.Reduced:
			op = o.Input
		case *algebra.OrderBy:
			op = o.Input
		case *algebra.Filter:
			bgp, ok := o.Input.(*algebra.BGP)
			return ok && e.opts.PushFilters && optimize.Covers(bgp.Vars(), o.Expr.Vars())
		case *algebra.BGP:
			return true
		default:
			return false
		}
	}
}

// newQctx opens the execution context of one query. The root trace context
// is allocated whether or not a recorder is attached — it is zero-width on
// the wire — because it is also what attributes the query's traffic: the
// fabric charges every leg carrying it to the accumulator registered here.
func (e *Engine) newQctx(initiator simnet.Addr, q *sparql.Query) *qctx {
	net := e.sys.Net()
	ctx := &qctx{
		initiator: initiator, dataset: q.From, fromNamed: q.FromNamed,
		targets: map[simnet.Addr]bool{},
		rec:     net.Recorder(), flt: net.FlightRecorder(),
		tc: trace.Root(e.sys.NextTraceID()),
	}
	ctx.rows = ctx.rowBuf[:0]
	net.TrackQuery(ctx.tc.Query)
	return ctx
}

// stats assembles the query's cost summary from the traffic the fabric
// attributed to it and the engine-side counters.
func (c *qctx) stats(traffic simnet.QueryTraffic, solutions int, at, done simnet.VTime) Stats {
	return Stats{
		Messages:         traffic.Messages,
		Bytes:            traffic.Bytes,
		PerMethod:        traffic.PerMethod,
		ResponseTime:     time.Duration(done - at),
		LookupHops:       c.hops,
		Subqueries:       c.subq,
		TargetsContacted: len(c.targets),
		StaleDrops:       c.drops,
		CacheHits:        c.cacheHits,
		ReplicaHits:      c.replicaHits,
		Solutions:        solutions,
	}
}

// runPlan executes an optimized algebra plan and post-processes its
// solutions into the query form's result.
func (e *Engine) runPlan(ctx *qctx, q *sparql.Query, op algebra.Op, at simnet.VTime) (*Result, simnet.VTime, error) {
	res, done, err := e.execQuery(ctx, op, at)
	ctx.stage("exec", at, done)
	if err != nil {
		return nil, done, err
	}
	// Post-processing happens at the initiator: ship the final solutions
	// home first (Fig. 3 "Post-Processing"). Only there do the rows become
	// mappings, once.
	shipped := done
	res, done, err = e.ship(ctx, res, ctx.initiator, methodResult, done)
	ctx.stage("ship-result", shipped, done)
	if err != nil {
		return nil, done, err
	}

	out := &Result{Solutions: solutionsOf(res)}
	switch q.Form {
	case sparql.FormSelect:
		out.Vars = op.Vars()
	case sparql.FormAsk:
		out.IsAsk = true
		out.Ask = len(out.Solutions) > 0
	case sparql.FormConstruct:
		out.Triples = eval.Construct(q.Template, res.flat().rows)
	case sparql.FormDescribe:
		var ts []rdf.Triple
		ts, done, err = e.describe(ctx, q, res.flat().rows, done)
		if err != nil {
			return nil, done, err
		}
		out.Triples = ts
	}
	ctx.opSpan(ctx.tc, "dqp.query", string(ctx.initiator),
		e.opts.Strategy.String()+"/"+e.opts.Conjunction.String(), at, done)
	ctx.stage("post-process", done, done)
	return out, done, nil
}

// runBareDescribe handles DESCRIBE with no WHERE clause: the describe
// terms are resolved directly.
func (e *Engine) runBareDescribe(ctx *qctx, q *sparql.Query, at simnet.VTime) (*Result, simnet.VTime, error) {
	ts, done, err := e.describe(ctx, q, eval.Table{}, at)
	ctx.stage("describe", at, done)
	if err != nil {
		return nil, done, err
	}
	ctx.opSpan(ctx.tc, "dqp.query", string(ctx.initiator), "describe", at, done)
	return &Result{Triples: ts}, done, nil
}

// describe fetches all triples whose subject is one of the describe terms
// (constants, or variable bindings from the WHERE clause's rows), one
// sequential sub-query per resource in rdf.Compare order: span IDs, start
// times and loss draws follow the visiting order, so it must not be a map's.
func (e *Engine) describe(ctx *qctx, q *sparql.Query, rows eval.Table, at simnet.VTime) ([]rdf.Triple, simnet.VTime, error) {
	resources := map[rdf.Term]bool{}
	for _, t := range q.DescribeTerms {
		if !t.IsVar() {
			resources[t] = true
			continue
		}
		if c := slices.Index(rows.Vars, t.Value); c >= 0 {
			for i := 0; i < rows.N; i++ {
				if v := rows.Row(i)[c]; !v.IsZero() {
					resources[v] = true
				}
			}
		}
	}
	if q.Star {
		for _, v := range rows.Terms {
			if v.Kind == rdf.KindIRI {
				resources[v] = true
			}
		}
	}
	ordered := make([]rdf.Term, 0, len(resources))
	for r := range resources {
		ordered = append(ordered, r)
	}
	slices.SortFunc(ordered, rdf.Compare)
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	now := at
	for _, r := range ordered {
		pat := rdf.Triple{S: r, P: rdf.NewVar("p"), O: rdf.NewVar("o")}
		res, done, err := e.execBGP(ctx, []rdf.Triple{pat}, nil, rdf.Term{}, now)
		now = done
		if err != nil {
			return nil, now, err
		}
		res, done, err = e.ship(ctx, res, ctx.initiator, methodResult, now)
		now = done
		if err != nil {
			return nil, now, err
		}
		props := res.flat().rows
		p, o := slices.Index(props.Vars, "p"), slices.Index(props.Vars, "o")
		for i := 0; i < props.N; i++ {
			t := rdf.Triple{S: r, P: props.Row(i)[p], O: props.Row(i)[o]}
			if t.IsConcrete() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	rdf.SortTriples(out)
	return out, now, nil
}

// plan builds the algebra Run executes: the translated query under the
// initiator's algebraic rewrites (Fig. 3, global query optimization). Join
// reordering by location-table frequencies happens at plan time inside
// exec, where the postings are available, so patterns keep their query
// order here. A DESCRIBE without a WHERE clause has no algebra (nil op):
// its terms are resolved directly.
func (e *Engine) plan(q *sparql.Query) (algebra.Op, error) {
	if q.Form == sparql.FormDescribe && q.Where == nil {
		return nil, nil
	}
	op, err := algebra.Translate(q)
	if err != nil {
		return nil, err
	}
	return optimize.Optimize(op, optimize.Options{PushFilters: e.opts.PushFilters}), nil
}

// Explain returns the algebra plan Run executes for a query, without
// running it; a DESCRIBE without a WHERE clause prints as Describe(terms).
func (e *Engine) Explain(query string) (string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return "", err
	}
	op, err := e.plan(q)
	if err != nil {
		return "", err
	}
	if op == nil {
		terms := make([]string, len(q.DescribeTerms))
		for i, t := range q.DescribeTerms {
			terms[i] = t.String()
		}
		return "Describe(" + strings.Join(terms, ",") + ")", nil
	}
	return op.String(), nil
}

// errUnsupported marks operators the distributed executor cannot place.
func errUnsupported(op algebra.Op) error {
	return fmt.Errorf("dqp: unsupported operator %T in distributed plan", op)
}
