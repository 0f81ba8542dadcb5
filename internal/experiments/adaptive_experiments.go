package experiments

// E16: the Zipf-skewed query storm behind the workload-adaptive hot-key
// reads extension (DESIGN.md §9). A population of initiators fires a
// skewed stream of primitive queries whose index keys concentrate on a
// few popular patterns; with the static two-level index every lookup of a
// hot key lands on its single Chord home successor, while the adaptive
// index spreads the reads of hot rows over the replica copies its write
// chains already keep.
// The experiment measures exactly the two claims the issue's acceptance
// criteria pin: the busiest index node's share of index-tier traffic, and
// the steady-state tail of the query critical path.
//
// (The issue calls this workload "E12"; the E12 slot was already taken by
// join-site selection, so the experiment registers as E16 and only the
// benchmark scenario names keep the e12_zipf_* labels.)

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

const (
	// e16Queries is the length of the measured storm. Before it, every
	// target of the hot pool is queried e16WarmupPasses times: the
	// warm-up drives each key past the detector threshold and lets the
	// initiator learn the holder advertisements, so the measured storm
	// is the steady state the adaptive path is for. Warm-up runs in both
	// modes (identically, modulo the adaptive machinery itself) and is
	// excluded from every measured figure.
	e16Queries      = 40
	e16WarmupPasses = 4
	// e16Pool is the number of distinct storm targets: the Zipf draw is
	// over this pool, so the storm's keys are few and heavily repeated —
	// the hot-key regime.
	e16Pool = 10
	// e16Indexes is the ring size; e16ZipfS the storm's target skew.
	e16Indexes = 8
	e16ZipfS   = 1.4
)

// e16Dataset draws the shared FOAF dataset of the storm.
func e16Dataset(p Params) *workload.Dataset {
	return workload.Generate(workload.Config{
		Persons: 150, Providers: 8, AvgKnows: 4, ZipfS: 1.3, Seed: p.seed(0x16),
	})
}

// ZipfStormSummary is the numeric outcome of one E16 storm run; the
// benchmark JSON guard compares the static and adaptive numbers directly.
type ZipfStormSummary struct {
	// Queries / Failed count completed and partially-failed storm
	// queries (failures only occur under fault injection).
	Queries int
	Failed  int
	// Messages / Bytes are the storm's total fabric traffic.
	Messages int64
	Bytes    int64
	// HotShare is the busiest index node's fraction of all index-node
	// sent bytes during the storm — 1/n is a perfectly balanced tier.
	HotShare float64
	// MeanMs / TailMs are the mean and maximum critical-path response
	// times (virtual ms) over the measured (post-warm-up) queries.
	MeanMs float64
	TailMs float64
	// ReplicaHits counts lookups served by hot reads.
	ReplicaHits int
	// PerMethod is the storm's per-method traffic breakdown.
	PerMethod map[string]simnet.MethodStats
	// Monitors is the post-storm invariant-monitor status ("" when
	// Params.Flight left the monitors off, "ok" when armed and clean).
	Monitors string
}

// E16ZipfStormSummary runs the storm once, static or adaptive, and
// returns the measured numbers. The same Params always reproduce the same
// summary bit-for-bit: the dataset, the target stream and any fault plan
// all derive from p.Seed.
func E16ZipfStormSummary(p Params, adaptive bool) (ZipfStormSummary, error) {
	d := e16Dataset(p)
	mode := p
	mode.Adaptive = adaptive
	dep, err := buildDeployment(mode, e16Indexes, d)
	if err != nil {
		return ZipfStormSummary{}, err
	}
	// One engine per run models one querying node re-using its learned
	// hot-read hints, the same reuse E14 grants the lookup cache.
	e := dqp.NewEngine(dep.sys, dqp.Options{Strategy: dqp.StrategyFreqChain})
	pool := d.Persons[:e16Pool]
	for pass := 0; pass < e16WarmupPasses; pass++ {
		for _, target := range pool {
			_, _, done, err := e.Query("D00", workload.QueryPrimitive(target), dep.clock.Now())
			dep.clock.Advance(done)
			if err != nil && !dqp.IsPartialFailure(err) {
				return ZipfStormSummary{}, err
			}
		}
	}

	// The per-(node, method) registry identifies the hot node; attached
	// after warm-up so only the measured storm counts, and Tee keeps any
	// recorder the deployment already had.
	reg := trace.NewRegistry()
	dep.sys.Net().SetRecorder(trace.Tee(dep.sys.Net().Recorder(), reg))
	before := dep.sys.Net().Metrics()

	rng := p.Rand(0xE16)
	zipf := rand.NewZipf(rng, e16ZipfS, 1, uint64(len(pool)-1))
	var sum ZipfStormSummary
	var steady []time.Duration
	for q := 0; q < e16Queries; q++ {
		target := pool[int(zipf.Uint64())]
		_, stats, done, err := e.Query("D00", workload.QueryPrimitive(target), dep.clock.Now())
		dep.clock.Advance(done)
		if err != nil {
			if !dqp.IsPartialFailure(err) {
				return ZipfStormSummary{}, err
			}
			sum.Failed++
			continue
		}
		sum.Queries++
		sum.ReplicaHits += stats.ReplicaHits
		steady = append(steady, stats.ResponseTime)
	}
	delta := dep.sys.Net().Metrics().Sub(before)
	sum.Messages, sum.Bytes = delta.Messages, delta.Bytes
	sum.PerMethod = delta.PerMethod
	sum.HotShare = hotIndexShare(reg.Snapshot())
	var total time.Duration
	for _, rt := range steady {
		total += rt
		if float64(rt)/float64(time.Millisecond) > sum.TailMs {
			sum.TailMs = float64(rt) / float64(time.Millisecond)
		}
	}
	if len(steady) > 0 {
		sum.MeanMs = float64(total) / float64(len(steady)) / float64(time.Millisecond)
	}
	sum.Monitors = dep.checkMonitors()
	return sum, nil
}

// hotIndexShare is the busiest index node's fraction of the bytes sent by
// all index nodes (requests they forwarded plus responses they served).
func hotIndexShare(snap trace.MetricsSnapshot) float64 {
	perNode := map[string]int64{}
	var total int64
	for _, e := range snap.Entries {
		if !strings.HasPrefix(e.Node, "idx-") {
			continue
		}
		perNode[e.Node] += e.Bytes
		total += e.Bytes
	}
	if total == 0 {
		return 0
	}
	var max int64
	for _, b := range perNode {
		if b > max {
			max = b
		}
	}
	return float64(max) / float64(total)
}

// E16ZipfStorm renders the static-vs-adaptive storm comparison table.
func E16ZipfStorm(p Params) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Caption: "Zipf query storm: static vs. adaptive hot-key replication (extension)",
		Headers: []string{"mode", "queries", "failed", "msgs", "total-KiB", "hot-share", "mean-ms", "tail-ms", "replica-hits"},
	}
	var static, adaptive ZipfStormSummary
	for _, mode := range []bool{false, true} {
		sum, err := E16ZipfStormSummary(p, mode)
		if err != nil {
			return nil, err
		}
		name := "static"
		if mode {
			name = "adaptive"
			adaptive = sum
		} else {
			static = sum
		}
		t.AddRow(name, sum.Queries, sum.Failed, sum.Messages, kb(sum.Bytes),
			sum.HotShare, sum.MeanMs, sum.TailMs, sum.ReplicaHits)
		t.AddTraffic(name, sum.PerMethod)
		if sum.Monitors != "" {
			t.Notes = append(t.Notes, fmt.Sprintf("invariant monitors (%s storm): %s", name, sum.Monitors))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hot-node byte share %.2f -> %.2f: hot rows answered by %d replica reads instead of the home successor",
			static.HotShare, adaptive.HotShare, adaptive.ReplicaHits),
		fmt.Sprintf("steady-state tail %.2f ms -> %.2f ms (%d warm-up passes over the %d-key pool pay promotion and are excluded)",
			static.TailMs, adaptive.TailMs, e16WarmupPasses, e16Pool),
		"a hot read serves only a row whose digest matches the owner's last reply; any stabilization/churn bumps the epoch and every hint lapses at once")
	return t, nil
}
