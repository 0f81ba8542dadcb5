package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/dqp"
	"adhocshare/internal/flight"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

// layerValue is one per-layer metric as measured, with its sample count.
type layerValue struct {
	value   float64
	samples int
}

// layerValues collects the per-layer metrics of a traced run by name.
type layerValues map[string]layerValue

// checkPointAdditive is not a metric: it is how far the median layer sum
// plus the median residual of point_lookup's ops are from the median query
// span, as a share of it.
const checkPointAdditive = "check.point_layers_plus_residual_vs_query"

func (lv layerValues) set(name string, value float64, samples int) {
	lv[name] = layerValue{value, samples}
}

// median sets a metric to the median of xs times scale.
func (lv layerValues) median(name string, xs []float64, scale float64) {
	lv.set(name, median(xs)*scale, len(xs))
}

// mean sets a metric to the mean of xs times scale.
func (lv layerValues) mean(name string, xs []float64, scale float64) {
	lv.set(name, mean(xs)*scale, len(xs))
}

// mallocs reads the cumulative count of heap allocations.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// timePer runs f n times and returns the host ns per call.
func timePer(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n)
}

// allocsPer runs f n times and returns the heap allocations per call.
func allocsPer(n int, f func()) float64 {
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return (mallocs() - before) / float64(n)
}

// tracedRun is the run behind -trace 1. End-to-end metrics are measured
// with every recorder nil; this separate run measures the layers, each on
// the workload the prediction sheet in README.md names for it, by calling
// the layer's public function on the inputs that workload's ops produce.
// The six harness rows (runtime.*, host.op_*, trace.overhead_ratio)
// are about the workload named on the command line. It returns the
// metrics, the ops it ran and how many of them failed their oracle check.
func tracedRun(prof profile, in *inputs, about plan, seconds float64, tr *tracer) (layerValues, int, int, error) {
	lv := layerValues{}
	attempted, failed := 0, 0
	for _, probe := range []struct {
		group string
		run   func(profile, *inputs, *tracer, layerValues) (int, int, error)
	}{
		{"micro", probeMicro}, {"point", probePoint}, {"join", probeJoin}, {"publish", probePublish},
	} {
		tr.group = probe.group
		a, f, err := probe.run(prof, in, tr, lv)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted += a
		failed += f
	}

	// The harness rows: one round of the named workload as the measuring
	// run would run it, then one traced — a span buffer on the fabric and a
	// host span per op. The ratio of the two rates is what tracing costs.
	tr.group = "harness"
	budget := time.Duration(seconds / float64(prof.rounds) * float64(time.Second))
	plain, err := measureRound(about, budget, in.probe, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	traced, err := measureRound(about, budget, in.probe, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted += plain.attempted + traced.attempted
	failed += plain.failed + traced.failed
	lv.set("runtime.gc_cycles_per_op", plain.gcCycles/float64(plain.ops), plain.ops)
	lv.set("runtime.gc_pause_share", plain.gcPauseS/plain.windowS, plain.ops)
	_, tailMs := tail(plain.lat)
	lv.set("host.op_p50_ms", median(plain.lat), len(plain.lat))
	lv.set("host.op_tail_ms", tailMs, len(plain.lat))
	lv.set("trace.overhead_ratio", (float64(traced.ops)/traced.wallS)/(float64(plain.ops)/plain.wallS), traced.ops)
	return lv, attempted, failed, nil
}

// methodEcho is the one RPC of the fabric micro rows.
const methodEcho = "bench.echo"

// echoNode is its handler: it returns the request.
type echoNode struct{}

func (echoNode) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case methodEcho:
		return req, at, nil
	default:
		return nil, at, fmt.Errorf("echo node: unknown method %s", method)
	}
}

// probeMicro measures the rows that need no deployment, at fixed iteration
// counts: the fabric, the recorders, key hashing, the location table and
// the triple store on the point dataset's triples.
func probeMicro(prof profile, in *inputs, _ *tracer, lv layerValues) (int, int, error) {
	n := func(full int) int { return max(1, full/prof.microScale) }
	lv.set("workload.generate_ms", float64(in.generateTime)/float64(time.Millisecond), 1)

	// simnet: one Call is a request and a response leg.
	net := simnet.New(netConfig())
	net.Register("a", echoNode{})
	net.Register("b", echoNode{})
	var now simnet.VTime
	call := func(p simnet.Payload) func() {
		return func() {
			_, done, err := net.Call("a", "b", methodEcho, p, now) //adhoclint:ignore wireiso two echo nodes on a private fabric; nothing mutates the payload
			if err != nil {
				panic(err) // an echo between two registered nodes cannot fail
			}
			now = done
		}
	}
	small := simnet.Bytes(64)
	// A large message costs the host what sizing its payload costs: 64 KiB
	// of solutions, sized by walking every binding.
	var large eval.Solutions
	for _, t := range in.pointTriples {
		if large.SizeBytes() >= 64<<10 {
			break
		}
		large = append(large, eval.Binding{"s": t.S, "p": t.P, "o": t.O})
	}
	lv.set("simnet.call_ns.small", timePer(n(200000), call(small)), n(200000))
	lv.set("simnet.call_ns.large", timePer(n(20000), call(overlay.SolutionsResp{Sols: large})), n(20000))
	lv.set("simnet.call_allocs", allocsPer(n(50000), call(small)), n(50000))
	net.SetFlightRecorder(flight.NewRecorder(armRing))
	net.SetRecorder(armedRecorder())
	lv.set("simnet.call_ns.armed", timePer(n(50000), call(small)), n(50000))
	const branches = 16
	perFanout := timePer(n(20000), func() {
		simnet.Parallel(branches, 0, func(int) (struct{}, simnet.VTime, error) { return struct{}{}, 0, nil })
	})
	lv.set("simnet.parallel_ns_per_branch", perFanout/branches, n(20000))

	// trace and flight: recording at capacity, as on a long armed run.
	span := trace.Span{Query: 1, ID: 1, Kind: trace.KindMessage, Name: "chord.find_successor", From: "idx-00", To: "idx-01", End: 2e6, Bytes: 24}
	reg := trace.NewRegistry()
	lv.set("trace.registry_record_ns", timePer(n(200000), func() { reg.Record(span) }), n(200000))
	ring := trace.NewRingBuffer(armSpans)
	record := func() {
		span.Query++
		ring.Record(span)
	}
	timePer(armSpans, record)
	lv.set("trace.buffer_record_ns", timePer(n(50000), record), n(50000))
	flt := flight.NewRecorder(armRing)
	ev := flight.Event{Node: "idx-00", Kind: flight.KindDeliver, Peer: "idx-01", Method: "chord.find_successor"}
	emit := func() {
		ev.VT++
		ev.End = ev.VT
		flt.Emit(ev)
	}
	timePer(2*armRing, emit)
	lv.set("flight.emit_ns", timePer(n(200000), emit), n(200000))
	lv.set("flight.emit_allocs", allocsPer(n(50000), emit), n(50000))

	// overlay index write and rdf, on the point dataset's triples.
	triples := in.pointTriples[:max(1, len(in.pointTriples)/prof.microScale)]
	var keys [][6]chord.ID
	start := time.Now()
	for _, t := range triples {
		keys = append(keys, overlay.TripleKeys(t, 24))
	}
	lv.set("overlay.triple_keys_ns", float64(time.Since(start))/float64(len(triples)), len(triples))

	base := heapAfterGC()
	table := overlay.NewLocationTable()
	start = time.Now()
	for i, ks := range keys {
		node := in.pointProviders[i%len(in.pointProviders)]
		for _, k := range ks {
			table.Add(k, node, 1)
		}
	}
	adds := 6 * len(keys)
	lv.set("overlay.table_add_ns", float64(time.Since(start))/float64(adds), adds)
	lv.set("overlay.table_heap_bytes_per_posting", (heapAfterGC()-base)/float64(table.Postings()), table.Postings())
	runtime.KeepAlive(table)

	base = heapAfterGC()
	g := rdf.NewGraph()
	start = time.Now()
	for _, t := range triples {
		g.Add(t)
	}
	lv.set("rdf.graph_add_ns", float64(time.Since(start))/float64(len(triples)), len(triples))
	lv.set("rdf.heap_bytes_per_triple", (heapAfterGC()-base)/float64(g.Size()), g.Size())
	knows := rdf.NewIRI(workload.FOAF + "knows")
	matches := n(20000)
	i := 0
	perMatch := timePer(matches, func() {
		g.Match(rdf.Triple{S: rdf.NewVar("x"), P: knows, O: workload.PersonIRI(i % 100)})
		i++
	})
	lv.set("rdf.graph_match_us", perMatch/1e3, matches)
	return 0, 0, nil
}

// probePoint measures the message-bound read path on point_lookup's
// deployment and op list: the layer-by-layer decomposition of every op of
// one cycle, then the cost of the observability taps and of 1% message
// loss, each against the same ops on the same deployment.
func probePoint(prof profile, in *inputs, tr *tracer, lv layerValues) (int, int, error) {
	plan := in.point
	rdAny, err := plan.begin()
	if err != nil {
		return 0, 0, err
	}
	rd := rdAny.(*pointRound)
	dep, net := rd.dep, rd.dep.sys.Net()
	lv.set("chord.ring_build_ms", float64(dep.ringBuild)/float64(time.Millisecond), 1)
	attempted, failed := rd.warmup()

	// Decomposition: the op through the engine, then the same op layer by
	// layer. The residual is what the engine spends beyond the layers.
	rp := newReplayer(tr, dep)
	var layerSums, residual []float64
	for i, op := range plan.ops {
		s := tr.begin("dqp.query.point", i+1, 0)
		_, stats, err := rd.query(i)
		tr.end(s)
		attempted++
		if err != nil || stats.Solutions != op.want {
			failed++
		}
		tr.count(s, "msgs", float64(stats.Messages))
		layers, err := rp.replay(i+1, rd.initiator(i), op.query)
		if err != nil {
			return 0, 0, fmt.Errorf("replay of %q: %w", op.query, err)
		}
		sp := tr.spans[s-1]
		layerSums = append(layerSums, layers)
		residual = append(residual, float64(sp.End-sp.Start)-layers)
	}
	lv.median("sparql.parse_us", tr.durations(spanParse), 1e-3)
	lv.median("plan.translate_optimize_us", tr.durations(spanPlan), 1e-3)
	lv.median("chord.resolve_us", tr.durations(spanResolve), 1e-3)
	lv.mean("chord.hops_per_resolve", tr.counts(spanResolve, "hops"), 1)
	lv.mean("chord.msgs_per_resolve", tr.counts(spanResolve, "msgs"), 1)
	lv.median("overlay.lookup_us", tr.durations(spanLookup), 1e-3)
	lv.mean("overlay.lookup_msgs", tr.counts(spanLookup, "msgs"), 1)
	lv.mean("overlay.lookup_vms", tr.counts(spanLookup, "vms"), 1)
	lv.mean("overlay.postings_per_lookup", tr.counts(spanLookup, "postings"), 1)
	lv.median("dqp.residual_us.point", residual, 1e-3)
	queryNs := median(tr.durations("dqp.query.point"))
	lv.set("simnet.host_us_per_msg", queryNs/1e3/mean(tr.counts("dqp.query.point", "msgs")), len(plan.ops))
	// Medians do not add up exactly the way each op's spans do; the report
	// shows how far the layers plus the residual are from the query span.
	lv.set(checkPointAdditive, relDiff(queryNs, median(layerSums)+median(residual)), len(plan.ops))

	distinct := make([]string, len(plan.distinct))
	for k, i := range plan.distinct {
		distinct[k] = plan.ops[i].query
	}
	k := 0
	lv.set("sparql.parse_allocs", allocsPer(len(distinct), func() {
		if _, err := sparql.Parse(distinct[k]); err != nil {
			panic(err) // every query was parsed for the oracle already
		}
		k++
	}), len(distinct))

	// The location table read and the fabric's per-query snapshot, on this
	// deployment's state.
	bits := dep.sys.Config().Bits
	hot := workload.PersonIRI(rankToPerson(0, prof.point.persons))
	key, _, _ := overlay.PatternKey(rdf.Triple{S: hot, P: rdf.NewVar("q"), O: rdf.NewVar("o")}, bits)
	owner, _, done, err := dep.sys.ResolveKey(plan.providers[0], key, dep.now)
	if err != nil {
		return 0, 0, err
	}
	dep.now = done
	idx, _ := dep.sys.Index(owner)
	gets := max(1, 200000/prof.microScale)
	lv.set("overlay.table_get_ns", timePer(gets, func() { idx.Table.Get(key) }), gets)
	snaps := max(1, 20000/prof.microScale)
	lv.set("simnet.metrics_snapshot_ns", timePer(snaps, func() { net.Metrics() }), snaps)

	// The codec on a routing request and on this key's real row.
	find := chord.FindReq{Target: key, TC: trace.Root(1)}
	codecs := max(1, 100000/prof.microScale)
	if err := codecRow(lv, "codec.roundtrip_ns.find", find, codecs, 1); err != nil {
		return 0, 0, err
	}
	if err := codecRow(lv, "codec.roundtrip_ns.postings", overlay.PostingsResp{Postings: idx.Table.Get(key)}, codecs, 1); err != nil {
		return 0, 0, err
	}

	// Observability and faults: whole passes over the op list, alternating
	// plain, armed and armed with 1% loss, twice, so drift of the host
	// favours no state. Ratios compare pooled passes of one deployment.
	type passes struct {
		lat          []float64
		wall, allocs float64
		vtime        simnet.VTime
		partial      int
	}
	// run adds one pass over the op list to p.
	run := func(p *passes) {
		allocs0, v0 := mallocs(), dep.now
		start := time.Now()
		prev := start
		for i, op := range plan.ops {
			_, stats, err := rd.query(i)
			now := time.Now()
			p.lat = append(p.lat, float64(now.Sub(prev)))
			prev = now
			attempted++
			switch {
			case dqp.IsPartialFailure(err):
				p.partial++
			case err != nil || stats.Solutions != op.want:
				failed++
			}
		}
		p.wall += float64(time.Since(start))
		p.allocs += mallocs() - allocs0
		p.vtime += dep.now - v0
	}
	var plain, armed, lossy passes
	var armMs, checkMs []float64
	events, lost := 0.0, 0.0
	for rep := 0; rep < 2; rep++ {
		run(&plain)

		start := time.Now()
		rd.arm()
		armMs = append(armMs, float64(time.Since(start))/1e6)
		run(&armed)
		events += float64(rd.mon.Recorder().Total())
		start = time.Now()
		violations := rd.mon.CheckAll()
		checkMs = append(checkMs, float64(time.Since(start))/1e6)
		failed += len(violations)

		lostBefore := rd.mon.Recorder().Count(flight.KindLost)
		net.SetFaults(&simnet.FaultPlan{Seed: in.seed, LossRate: 0.01})
		run(&lossy)
		net.SetFaults(nil)
		lost += float64(rd.mon.Recorder().Count(flight.KindLost) - lostBefore)
		rd.disarm()
	}
	ops := float64(2 * len(plan.ops))
	lv.median("obs.arm_ms", armMs, 1)
	lv.median("obs.check_all_ms", checkMs, 1)
	lv.set("obs.events_per_op", events/ops, int(ops))
	lv.set("obs.armed_host_ratio", median(armed.lat)/median(plain.lat), int(ops))
	lv.set("obs.armed_allocs_ratio", armed.allocs/plain.allocs, int(ops))
	lv.set("faults.loss1pct.retries_per_kop", 1000*lost/ops, int(ops))
	lv.set("faults.loss1pct.partial_per_kop", 1000*float64(lossy.partial)/ops, int(ops))
	lv.set("faults.loss1pct.vms_ratio", float64(lossy.vtime)/float64(armed.vtime), int(ops))
	lv.set("faults.loss1pct.host_ratio", lossy.wall/armed.wall, int(ops))
	return attempted, failed, nil
}

// codecRow measures one encode+decode round trip of a payload, n times,
// and reports ns times scale per round trip.
func codecRow(lv layerValues, name string, p simnet.Payload, n int, scale float64) error {
	var failure error
	per := timePer(n, func() {
		data, err := dqp.EncodePayload(p)
		if err == nil {
			_, err = dqp.DecodePayload(data)
		}
		if err != nil {
			failure = err
		}
	})
	lv.set(name, per*scale, n)
	return failure
}

// probeJoin measures the data-bound read path on join_mix's deployment:
// every (class, options) query of the sweep on its own, the virtual-clock
// stage profile and the layer decomposition of fig4, the centralized
// oracle, and eval and the codec on a real intermediate result.
func probeJoin(prof profile, in *inputs, tr *tracer, lv layerValues) (int, int, error) {
	plan := in.join
	rdAny, err := plan.begin()
	if err != nil {
		return 0, 0, err
	}
	rd := rdAny.(*joinRound)
	dep, net := rd.dep, rd.dep.sys.Net()
	attempted, failed := rd.warmup()

	sweeps := max(2, 5/prof.microScale)
	last := make([]dqp.Stats, len(plan.sweep))
	for s := 0; s < sweeps; s++ {
		for j, q := range plan.sweep {
			allocs0 := mallocs()
			span := tr.begin("dqp."+q.label(), s+1, 0)
			_, stats, err := rd.query(j)
			tr.end(span)
			tr.count(span, "allocs", mallocs()-allocs0)
			last[j] = stats
			attempted++
			if err != nil || stats.Solutions != len(q.answer) {
				failed++
			}
		}
	}
	var total, index, shipped float64
	for j, q := range plan.sweep {
		st := last[j]
		lv.median(dqpMetric(q.class, q.opts, "host_ms_p50"), tr.durations("dqp."+q.label()), 1e-6)
		lv.median(dqpMetric(q.class, q.opts, "allocs"), tr.counts("dqp."+q.label(), "allocs"), 1)
		lv.set(dqpMetric(q.class, q.opts, "msgs"), float64(st.Messages), 1)
		lv.set(dqpMetric(q.class, q.opts, "kib"), float64(st.Bytes)/1024, 1)
		lv.set(dqpMetric(q.class, q.opts, "vms"), float64(st.ResponseTime)/float64(time.Millisecond), 1)
		total += float64(st.Bytes)
		index += float64(st.IndexBytes())
		shipped += float64(st.ShippedSolutionBytes())
	}
	lv.set("dqp.index_kib_share", index/total, len(plan.sweep))
	lv.set("dqp.shipped_kib_share", shipped/total, len(plan.sweep))

	// fig4 under the default options is the last class, first option set.
	fig4 := len(plan.sweep) - len(optionSets)

	// Stage profile: which pipeline stage holds fig4's virtual critical
	// path.
	buf := trace.NewBuffer()
	net.SetRecorder(buf)
	_, _, err = rd.query(fig4)
	net.SetRecorder(nil)
	if err != nil {
		return 0, 0, err
	}
	queries := buf.Queries()
	if len(queries) == 0 {
		return 0, 0, errors.New("traced fig4 query recorded no spans")
	}
	sp := dqp.BuildStageProfile(buf.Spans(), queries[len(queries)-1])
	for _, stage := range []string{dqp.StageResolve, dqp.StageLookup, dqp.StageSubquery, dqp.StageTransfer} {
		lv.set("stage."+stage+".crit_share", float64(sp.Critical[stage].Time)/float64(sp.Total), sp.Critical[stage].Count)
	}
	tr.virtual["fig4.default"] = buf.Spans()

	// Decomposition of fig4, and one replay of every other class for the
	// storage and join rows.
	rp := newReplayer(tr, dep)
	rp.keepPartials = true
	var residual []float64
	for it := 0; it < sweeps; it++ {
		s := tr.begin("dqp.query.fig4", it+1, 0)
		_, _, err := rd.query(fig4)
		tr.end(s)
		if err != nil {
			return 0, 0, err
		}
		layers, err := rp.replay(it+1, plan.providers[fig4%len(plan.providers)], plan.sweep[fig4].text)
		if err != nil {
			return 0, 0, err
		}
		qs := tr.spans[s-1]
		residual = append(residual, float64(qs.End-qs.Start)-layers)
	}
	for j := 0; j < fig4; j += len(optionSets) {
		if _, err := rp.replay(sweeps+1+j, plan.providers[j%len(plan.providers)], plan.sweep[j].text); err != nil {
			return 0, 0, err
		}
	}
	lv.median("dqp.residual_ms.fig4", residual, 1e-6)
	lv.median("storage.local_match_us", tr.durations(spanLocalMatch), 1e-3)
	lv.mean("storage.rows_per_match", tr.counts(spanLocalMatch, "rows"), 1)
	joins := tr.durations(spanJoin)
	lv.set("eval.join_us_per_krow", sum(joins)/1e3/(sum(tr.counts(spanJoin, "rows_in"))/1e3), len(joins))

	// The largest per-pattern partial of the replays is the real
	// intermediate result Distinct and the codec are measured on.
	var largest eval.Solutions
	for _, p := range rp.partials {
		if len(p) > len(largest) {
			largest = p
		}
	}
	if len(largest) == 0 {
		return 0, 0, errors.New("replay produced no intermediate result")
	}
	krows := float64(len(largest)) / 1e3
	lv.set("eval.distinct_us_per_krow", timePer(sweeps, func() { eval.Distinct(largest) })/1e3/krows, sweeps)
	payload := overlay.SolutionsResp{Sols: largest}
	if err := codecRow(lv, "codec.roundtrip_us.solutions", payload, sweeps, 1e-3); err != nil {
		return 0, 0, err
	}
	encoded, err := dqp.EncodePayload(payload)
	if err != nil {
		return 0, 0, err
	}
	lv.set("codec.size_ratio.solutions", float64(len(encoded))/float64(payload.SizeBytes()), 1)

	// The centralized oracle on the same data, per class.
	for j := 0; j < len(plan.sweep); j += len(optionSets) {
		q := plan.sweep[j]
		op, err := translate(q.text)
		if err != nil {
			return 0, 0, err
		}
		var ms []float64
		for it := 0; it < sweeps; it++ {
			start := time.Now()
			if _, err := eval.Eval(op, in.joinUnion); err != nil {
				return 0, 0, err
			}
			ms = append(ms, float64(time.Since(start))/1e6)
		}
		lv.median("eval.oracle_ms."+q.class, ms, 1)
	}
	lv.set("dqp.overhead_vs_oracle.fig4",
		lv[dqpMetric("fig4", "default", "host_ms_p50")].value/lv["eval.oracle_ms.fig4"].value, sweeps)
	return attempted, failed, nil
}

// probePublish measures the write path on publish_churn's deployment: one
// cycle with a host span around every Publish, Retract and membership
// event.
func probePublish(_ profile, in *inputs, tr *tracer, lv layerValues) (int, int, error) {
	plan := in.publish
	rdAny, err := plan.begin()
	if err != nil {
		return 0, 0, err
	}
	rd := rdAny.(*publishRound)
	dep, net := rd.dep, rd.dep.sys.Net()
	lv.set("overlay.postings_per_triple", float64(dep.sys.TotalPostings())/float64(dep.sys.TotalTriples()), dep.sys.TotalTriples())

	// write runs one Publish or Retract under a span and counts, at the same
	// boundary, its triples, the fabric traffic and the allocations it
	// caused.
	write := func(name string, op int, b batch, call func(batch) error) error {
		m0, a0 := net.Metrics(), mallocs()
		s := tr.begin(name, op, 0)
		err := call(b)
		tr.end(s)
		allocs := mallocs() - a0
		m := net.Metrics()
		tr.count(s, "triples", float64(len(b.triples)))
		tr.count(s, "msgs", float64(m.Messages-m0.Messages))
		tr.count(s, "kib", float64(m.Bytes-m0.Bytes)/1024)
		tr.count(s, "allocs", allocs)
		return err
	}
	attempted, failed := 0, 0
	for i := 0; i < plan.opsPerCycle(); i++ {
		pub, ret := plan.op(i)
		err := write("overlay.publish", i+1, pub, dep.publish)
		if err == nil {
			err = write("overlay.retract", i+1, ret, dep.retract)
		}
		attempted++
		if err != nil {
			failed++
		}
		if plan.eventAfter(i) {
			name := "overlay.index_join"
			if rd.joined {
				name = "overlay.index_leave"
			}
			before := net.Metrics().Bytes
			s := tr.begin(name, i+1, 0)
			err := rd.membership()
			tr.end(s)
			if err != nil {
				return 0, 0, err
			}
			tr.count(s, "kib", float64(net.Metrics().Bytes-before)/1024)
		}
	}
	violations, _ := rd.finish()
	failed += violations
	// perTriple divides a total over the spans of one name by their triples.
	perTriple := func(span string, total float64) float64 {
		return total / sum(tr.counts(span, "triples"))
	}
	n := plan.opsPerCycle()
	const pub, ret = "overlay.publish", "overlay.retract"
	lv.set("overlay.publish_us_per_triple", perTriple(pub, sum(tr.durations(pub))/1e3), n)
	lv.set("overlay.publish_allocs_per_triple", perTriple(pub, sum(tr.counts(pub, "allocs"))), n)
	lv.set("overlay.publish_msgs_per_triple", perTriple(pub, sum(tr.counts(pub, "msgs"))), n)
	lv.set("overlay.publish_kib_per_triple", perTriple(pub, sum(tr.counts(pub, "kib"))), n)
	lv.set("overlay.retract_us_per_triple", perTriple(ret, sum(tr.durations(ret))/1e3), n)
	lv.set("overlay.retract_msgs_per_triple", perTriple(ret, sum(tr.counts(ret, "msgs"))), n)
	lv.median("overlay.index_join_ms", tr.durations("overlay.index_join"), 1e-6)
	lv.median("overlay.index_leave_ms", tr.durations("overlay.index_leave"), 1e-6)
	lv.median("overlay.index_join_kib", tr.counts("overlay.index_join", "kib"), 1)
	return attempted, failed, nil
}
