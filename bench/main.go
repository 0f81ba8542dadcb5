// Command bench is the repository's benchmark: four workloads driven in a
// closed loop from one client goroutine through the public functions of
// adhocshare/internal/..., measured on both clocks — the virtual one
// (messages, bytes, critical-path time: exact) and the host one (time,
// allocations, heap) — with every answer checked against the centralized
// oracle, and a separate traced run for the per-layer numbers. README.md
// documents the workloads, the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// inputs is everything a run generates from the seed before it measures:
// datasets, the centralized oracle's view of them, and one plan per
// workload.
type inputs struct {
	seed int64
	// probe is the reference work the host times are corrected with.
	probe *hostProbe
	// generateTime is the host time of generating the point dataset.
	generateTime   time.Duration
	pointTriples   []rdf.Triple
	pointProviders []simnet.Addr
	joinUnion      *rdf.Graph
	point, armed   *pointPlan
	join           *joinPlan
	publish        *publishPlan
}

func prepare(prof profile, seed int64) (*inputs, error) {
	in := &inputs{seed: seed, probe: newHostProbe()}
	start := time.Now()
	pointData := generate(prof.point, seed)
	in.generateTime = time.Since(start)
	in.pointProviders = providerAddrs(pointData)
	for _, b := range wholeProviders(pointData) {
		in.pointTriples = append(in.pointTriples, b.triples...)
	}
	pointUnion := pointData.UnionGraph()
	var err error
	if in.point, err = newPointPlan(prof, pointData, pointUnion, seed); err != nil {
		return nil, err
	}
	armed := *in.point
	armed.armed = true
	in.armed = &armed
	in.publish = newPublishPlan(prof, pointData)
	joinData := generate(prof.join, seed)
	in.joinUnion = joinData.UnionGraph()
	if in.join, err = newJoinPlan(prof, joinData, in.joinUnion); err != nil {
		return nil, err
	}
	return in, nil
}

// plans returns the plans of the named workload, or of all four in
// BENCHMARK.json's order.
func (in *inputs) plans(workload string) ([]plan, error) {
	all := []plan{in.point, in.join, in.publish, in.armed}
	if workload == "all" {
		return all, nil
	}
	for _, p := range all {
		if p.name() == workload {
			return []plan{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	out      string
	traceOut string
}

func main() {
	var o options
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.StringVar(&o.workload, "workload", "all", "workload to run: point_lookup, join_mix, publish_churn, point_lookup_armed or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset, the op order and the fault plan")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed budget of one workload, split evenly over its rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run (per-layer metrics) instead of the measuring run (end-to-end metrics)")
	flag.IntVar(&o.repeat, "repeat", 1, "make this many measuring runs, interleaved round by round, and hold the first two to each other (self-consistency check)")
	flag.BoolVar(&o.smoke, "smoke", false, "one round on deployments a tenth the size: proves the plumbing, measures nothing")
	flag.StringVar(&o.out, "out", "", "write the full report document (JSON) to this file")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	if *spec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes what the options ask for and reports whether every check
// held.
func run(o options) (bool, error) {
	if o.trace != 0 && o.trace != 1 {
		return false, errors.New("-trace takes 0 or 1")
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return false, errors.New("-seconds must be positive and -repeat at least 1")
	}
	// One client goroutine; the second processor is for the collector and
	// the fan-out goroutines of simnet.Parallel.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	prof := fullProfile
	if o.smoke {
		prof = smokeProfile
	}
	in, err := prepare(prof, o.seed)
	if err != nil {
		return false, err
	}
	plans, err := in.plans(o.workload)
	if err != nil {
		return false, err
	}
	rep := newReport(o)
	if o.trace == 1 {
		for i := 0; i < o.repeat; i++ {
			if err := rep.traced(prof, in, plans[0], o); err != nil {
				return false, err
			}
		}
		return rep.emit(o)
	}
	if err := rep.measured(plans, prof, in.probe, o); err != nil {
		return false, err
	}
	if o.repeat > 1 {
		// The sanity orderings of the self-consistency check come from the
		// layers, so it ends on one traced run.
		if err := rep.traced(prof, in, plans[0], o); err != nil {
			return false, err
		}
		rep.checkRepeat()
	}
	return rep.emit(o)
}
