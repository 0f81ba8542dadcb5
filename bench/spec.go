package main

import "adhocshare/internal/dqp"

// The benchmark's vocabulary. Every workload and metric name, unit,
// direction and regression bound is fixed in this file; BENCHMARK.json is
// printed from these tables (-spec) and spec_test.go holds the two to the
// same set. Later performance and simplicity changes are gated on these
// names, so they do not change once merged.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEndSpec is one metric a user of the system would see.
type endToEndSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change is rejected. The acceptance procedure takes its
	// medians over runs on different seeds, so Bound is at least three times
	// the spread between seeds measured when the benchmark was written.
	Bound float64 `json:"bound"`
	// sameSeed is how far two runs of the same code on the same seed may
	// differ (-repeat 2). 0 marks the virtual-clock metrics: they must agree
	// bit for bit, between runs and between the rounds of one run.
	sameSeed float64
}

// layerSpec is one metric of a single layer, measured in the traced run.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Workload names.
const (
	wPointLookup      = "point_lookup"
	wJoinMix          = "join_mix"
	wPublishChurn     = "publish_churn"
	wPointLookupArmed = "point_lookup_armed"
)

var workloadSpecs = []workloadSpec{
	{wPointLookup, "Message-bound reads: one primitive SELECT per op on a Zipf key set; parse, Chord resolve, location-table read and per-message fabric cost dominate, results are tiny."},
	{wJoinMix, "Data-bound reads: sweeps of the Fig. 4/6/7/8/9 queries under default and baseline options; eval joins, solution shipping and rdf matching dominate, messages are few."},
	{wPublishChurn, "Write path: sliding-window Publish+Retract of 100-triple batches with index-node join/leave; key hashing, batch resolve, table and graph writes, epoch-flushed owner caches."},
	{wPointLookupArmed, "point_lookup's op list with flight recorder, monitors and trace registry armed; its ratio to point_lookup isolates the observability taps, join_mix is the bypass."},
}

// End-to-end metric names.
const (
	mSetupS        = "setup_s"
	mOpsPerS       = "ops_per_s"
	mAllocsPerOp   = "allocs_per_op"
	mAllocKiBPerOp = "alloc_kib_per_op"
	mLiveHeapMiB   = "live_heap_mib"
	mMsgsPerOp     = "msgs_per_op"
	mWireKiBPerOp  = "wire_kib_per_op"
	mVTimeMsPerOp  = "vtime_ms_per_op"
)

// endToEndSpecs lists the end-to-end metrics; every workload reports all
// of them per op. Two of the issue's ten are not here. failed_share is
// expected to be 0 everywhere, which the benchmark contract does not allow
// for a bounded metric: it is the failed/attempted pair of every result
// line and failed_share in the -out document. op_host_p50_ms could not meet
// any bound the contract allows on the host this was written on (its spread
// between runs reached 27%; README.md has the data), so it is demoted to
// the per-layer metric host.op_p50_ms, as the issue prescribes.
var endToEndSpecs = []endToEndSpec{
	{Name: mSetupS, Unit: "s", Better: lower, Bound: 0.25, sameSeed: 0.25},
	{Name: mOpsPerS, Unit: "ops/s", Better: higher, Bound: 0.25, sameSeed: 0.25},
	{Name: mAllocsPerOp, Unit: "count", Better: lower, Bound: 0.05, sameSeed: 0.02},
	{Name: mAllocKiBPerOp, Unit: "KiB", Better: lower, Bound: 0.05, sameSeed: 0.02},
	{Name: mLiveHeapMiB, Unit: "MiB", Better: lower, Bound: 0.05, sameSeed: 0.05},
	{Name: mMsgsPerOp, Unit: "msgs", Better: lower, Bound: 0.03},
	{Name: mWireKiBPerOp, Unit: "KiB", Better: lower, Bound: 0.06},
	{Name: mVTimeMsPerOp, Unit: "vms", Better: lower, Bound: 0.08},
}

// queryClasses are the five pattern classes of a join_mix sweep, in sweep
// order; optionSets are the two configurations each runs under.
var queryClasses = []string{"conj", "optional", "union", "filter", "fig4"}

type optionSet struct {
	name string
	opts dqp.Options
}

var optionSets = []optionSet{
	{"default", dqp.DefaultOptions()},
	{"baseline", dqp.BaselineOptions()},
}

// dqpStatSpecs are the per-(class, options) rows of the dqp layer.
var dqpStatSpecs = []struct{ suffix, unit string }{
	{"host_ms_p50", "ms"},
	{"allocs", "count"},
	{"msgs", "msgs"},
	{"kib", "KiB"},
	{"vms", "vms"},
}

func dqpMetric(class, opts, suffix string) string {
	return "dqp." + class + "." + opts + "." + suffix
}

// layerSpecs lists the per-layer metrics in pipeline order (Fig. 3), the
// fabric and observability taps after them. bench/README.md records which
// end-to-end metric each is expected to move, and on which workload.
var layerSpecs = buildLayerSpecs()

func buildLayerSpecs() []layerSpec {
	l := func(name, unit string) layerSpec { return layerSpec{name, unit, lower} }
	out := []layerSpec{
		l("sparql.parse_us", "us"),
		l("sparql.parse_allocs", "count"),
		l("plan.translate_optimize_us", "us"),

		l("chord.ring_build_ms", "ms"),
		l("chord.resolve_us", "us"),
		l("chord.hops_per_resolve", "count"),
		l("chord.msgs_per_resolve", "msgs"),

		l("overlay.lookup_us", "us"),
		l("overlay.lookup_msgs", "msgs"),
		l("overlay.lookup_vms", "vms"),
		l("overlay.postings_per_lookup", "count"),
		l("overlay.table_get_ns", "ns"),

		l("overlay.triple_keys_ns", "ns"),
		l("overlay.publish_us_per_triple", "us"),
		l("overlay.publish_allocs_per_triple", "count"),
		l("overlay.publish_msgs_per_triple", "msgs"),
		l("overlay.publish_kib_per_triple", "KiB"),
		l("overlay.retract_us_per_triple", "us"),
		l("overlay.retract_msgs_per_triple", "msgs"),
		l("overlay.table_add_ns", "ns"),
		l("overlay.index_join_ms", "ms"),
		l("overlay.index_leave_ms", "ms"),
		l("overlay.index_join_kib", "KiB"),
		l("overlay.postings_per_triple", "count"),

		l("storage.local_match_us", "us"),
		l("storage.rows_per_match", "count"),
		l("rdf.graph_add_ns", "ns"),
		l("rdf.graph_match_us", "us"),
		l("rdf.heap_bytes_per_triple", "B"),
		l("overlay.table_heap_bytes_per_posting", "B"),

		l("eval.join_us_per_krow", "us"),
		l("eval.distinct_us_per_krow", "us"),
	}
	for _, c := range queryClasses {
		out = append(out, l("eval.oracle_ms."+c, "ms"))
	}
	for _, c := range queryClasses {
		for _, o := range optionSets {
			for _, s := range dqpStatSpecs {
				out = append(out, l(dqpMetric(c, o.name, s.suffix), s.unit))
			}
		}
	}
	out = append(out,
		l("dqp.index_kib_share", "ratio"),
		l("dqp.shipped_kib_share", "ratio"),
		l("dqp.residual_us.point", "us"),
		l("dqp.residual_ms.fig4", "ms"),
		l("dqp.overhead_vs_oracle.fig4", "ratio"),

		l("stage.resolve.crit_share", "ratio"),
		l("stage.lookup.crit_share", "ratio"),
		l("stage.subquery.crit_share", "ratio"),
		l("stage.transfer.crit_share", "ratio"),

		l("simnet.call_ns.small", "ns"),
		l("simnet.call_ns.large", "ns"),
		l("simnet.call_allocs", "count"),
		l("simnet.call_ns.armed", "ns"),
		l("simnet.parallel_ns_per_branch", "ns"),
		l("simnet.metrics_snapshot_ns", "ns"),
		l("simnet.host_us_per_msg", "us"),

		l("trace.registry_record_ns", "ns"),
		l("trace.buffer_record_ns", "ns"),
		l("flight.emit_ns", "ns"),
		l("flight.emit_allocs", "count"),
		l("obs.arm_ms", "ms"),
		l("obs.check_all_ms", "ms"),
		l("obs.events_per_op", "count"),
		l("obs.armed_host_ratio", "ratio"),
		l("obs.armed_allocs_ratio", "ratio"),

		l("codec.roundtrip_ns.find", "ns"),
		l("codec.roundtrip_ns.postings", "ns"),
		l("codec.roundtrip_us.solutions", "us"),
		l("codec.size_ratio.solutions", "ratio"),

		l("faults.loss1pct.retries_per_kop", "count"),
		l("faults.loss1pct.partial_per_kop", "count"),
		l("faults.loss1pct.vms_ratio", "ratio"),
		l("faults.loss1pct.host_ratio", "ratio"),

		l("runtime.gc_cycles_per_op", "count"),
		l("runtime.gc_pause_share", "ratio"),
		l("host.op_p50_ms", "ms"),
		l("host.op_tail_ms", "ms"),
		l("workload.generate_ms", "ms"),
		layerSpec{"trace.overhead_ratio", "ratio", higher},
	)
	return out
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// defaultSeconds is BENCHMARK.json's run_seconds: the timed budget of one
// run, split evenly over its rounds.
const defaultSeconds = 10

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   layerSpecs,
	}
}
