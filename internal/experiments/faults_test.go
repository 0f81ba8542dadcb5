package experiments

// Fault-injection regression tests: the E9 strategy matrix under nonzero
// message loss, and churn (crash / recover) striking in the middle of a
// running query. The invariant in both cases is the one the dqp layer
// promises: a query either returns a result that matches the centralized
// oracle over the providers that could contribute, or it fails with the
// typed *dqp.PartialFailureError — it never silently truncates. All
// randomness flows from Params.Seed, so every scenario (including which
// messages are lost and when nodes crash) reproduces byte-for-byte.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/workload"
)

// e9Dataset regenerates the exact dataset E9Fig4EndToEnd queries.
func e9Dataset(p Params) *workload.Dataset {
	return workload.Generate(workload.Config{
		Persons: 200, Providers: 10, AvgKnows: 4, ZipfS: 1.2,
		KnowsNothingFraction: 0.4, Seed: p.seed(77),
	})
}

// centralOracle evaluates query over one union graph — the paper's
// Sect. IV-A query dataset, collapsed to a single site.
func centralOracle(t *testing.T, g *rdf.Graph, query string) eval.Solutions {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := eval.Eval(op, g)
	if err != nil {
		t.Fatal(err)
	}
	return sols
}

// unionExcept builds the union graph of every provider but the excluded
// ones — the oracle over the providers that stayed alive.
func unionExcept(d *workload.Dataset, except ...string) *rdf.Graph {
	skip := map[string]bool{}
	for _, e := range except {
		skip[e] = true
	}
	g := rdf.NewGraph()
	for name, ts := range d.ByProvider {
		if !skip[name] {
			g.AddAll(ts)
		}
	}
	return g
}

// solKey serializes a solution multiset in a canonical order, for both
// multiset comparison and byte-identity checks.
func solKey(sols eval.Solutions) string {
	keys := make([]string, len(sols))
	for i, s := range sols {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// multisetCounts indexes a solution set by binding key.
func multisetCounts(sols eval.Solutions) map[string]int {
	m := map[string]int{}
	for _, s := range sols {
		m[s.Key()]++
	}
	return m
}

// subMultiset reports whether a ⊆ b as multisets.
func subMultiset(a, b eval.Solutions) bool {
	have := multisetCounts(b)
	for k, n := range multisetCounts(a) {
		if have[k] < n {
			return false
		}
	}
	return true
}

// e9Configs is the 12-configuration strategy matrix of E9Fig4EndToEnd.
func e9Configs() []dqp.Options {
	var out []dqp.Options
	for _, st := range []dqp.Strategy{dqp.StrategyBasic, dqp.StrategyChain, dqp.StrategyFreqChain} {
		for _, cj := range []dqp.Conjunction{dqp.ConjPipeline, dqp.ConjParallelJoin} {
			for _, opt := range []bool{false, true} {
				out = append(out, dqp.Options{
					Strategy: st, Conjunction: cj, JoinSite: dqp.JoinSiteMoveSmall,
					PushFilters: opt, ReorderJoins: opt,
				})
			}
		}
	}
	return out
}

// runE9Sweep executes the Fig. 4 query once per configuration under p and
// serializes every outcome: the canonical solution multiset on success,
// the error text on failure. The returned transcript is the unit of the
// byte-identity check.
func runE9Sweep(t *testing.T, p Params, d *workload.Dataset, want eval.Solutions) string {
	t.Helper()
	q := workload.QueryFig4("Smith")
	var b strings.Builder
	for _, opts := range e9Configs() {
		dep, err := buildDeployment(p, 8, d)
		if err != nil {
			t.Fatalf("build %+v: %v", opts, err)
		}
		res, _, err := dep.runQuery(opts, "D00", q)
		label := fmt.Sprintf("%v/%v/push=%v", opts.Strategy, opts.Conjunction, opts.PushFilters)
		if err != nil {
			// Loss may exhaust a retry budget, but then the failure must
			// be the typed partial-failure error — nothing else is an
			// acceptable way to not return the oracle answer.
			if !dqp.IsPartialFailure(err) {
				t.Errorf("%s: untyped failure under loss: %v", label, err)
			}
			fmt.Fprintf(&b, "%s: error: %v\n", label, err)
			continue
		}
		if got, exp := multisetCounts(res.Solutions), multisetCounts(want); len(res.Solutions) != len(want) || !subMultiset(res.Solutions, want) || !subMultiset(want, res.Solutions) {
			t.Errorf("%s: %d solutions, oracle %d (got %v, want %v)",
				label, len(res.Solutions), len(want), got, exp)
		}
		fmt.Fprintf(&b, "%s: %s\n", label, solKey(res.Solutions))
	}
	return b.String()
}

// TestE9AllConfigsUnderLoss runs every E9 configuration at a 1% per-leg
// loss rate: retries (Network.CallRetry + the chord successor fallback) must
// deliver the oracle-identical result, or the query must fail with the
// typed partial-failure error. The full sweep then re-runs under the same
// seed and must reproduce byte-for-byte — the property that makes a loss
// failure reportable as "seed N, config C".
func TestE9AllConfigsUnderLoss(t *testing.T) {
	p := Params{Seed: 7, FaultRate: 0.01}
	d := e9Dataset(p)
	want := centralOracle(t, d.UnionGraph(), workload.QueryFig4("Smith"))
	if len(want) == 0 {
		t.Fatal("oracle returned no solutions — the workload no longer exercises the Fig. 4 query")
	}
	first := runE9Sweep(t, p, d, want)
	again := runE9Sweep(t, p, d, want)
	if first != again {
		t.Errorf("same-seed sweeps differ:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
}

// TestE9HigherLossStillTyped cranks the loss rate past the retry budget's
// comfort zone: outcomes may now include partial failures, but every one
// of them must be typed, and the sweep stays deterministic.
func TestE9HigherLossStillTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the high-loss sweep")
	}
	p := Params{Seed: 3, FaultRate: 0.05}
	d := e9Dataset(p)
	want := centralOracle(t, d.UnionGraph(), workload.QueryFig4("Smith"))
	first := runE9Sweep(t, p, d, want)
	again := runE9Sweep(t, p, d, want)
	if first != again {
		t.Errorf("same-seed sweeps differ:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
}

// TestE9LookupHopsIgnoreLoss: Stats.LookupHops counts routing decisions —
// the forwards of the reads that answered, as their owners report them —
// not re-sends. At 1% and 5% loss with no crashes, every E9 query that
// completes reports the hops of its fault-free run. Each deployment runs
// the configurations one after another, so each query's legs draw their
// own fates; the seeds advance until each loss rate has re-sent a read.
func TestE9LookupHopsIgnoreLoss(t *testing.T) {
	q := workload.QueryFig4("Smith")
	rates := []float64{0.01, 0.05}
	resent := map[float64]int{}
	for seed := int64(1); seed <= 16 && (resent[rates[0]] == 0 || resent[rates[1]] == 0); seed++ {
		d := e9Dataset(Params{Seed: seed})
		clean, err := buildDeployment(Params{Seed: seed}, 8, d)
		if err != nil {
			t.Fatal(err)
		}
		lossy := map[float64]*deployment{}
		for _, rate := range rates {
			if lossy[rate], err = buildDeployment(Params{Seed: seed, FaultRate: rate}, 8, d); err != nil {
				t.Fatal(err)
			}
		}
		for _, opts := range e9Configs() {
			label := fmt.Sprintf("seed %d, %v/%v/push=%v", seed, opts.Strategy, opts.Conjunction, opts.PushFilters)
			_, want, err := clean.runQuery(opts, "D00", q)
			if err != nil {
				t.Fatalf("%s, fault-free: %v", label, err)
			}
			for _, rate := range rates {
				_, got, err := lossy[rate].runQuery(opts, "D00", q)
				if err != nil {
					if !dqp.IsPartialFailure(err) {
						t.Errorf("%s, loss %v: untyped failure %v", label, rate, err)
					}
					continue
				}
				if got.LookupHops != want.LookupHops {
					t.Errorf("%s, loss %v: %d lookup hops, %d fault-free", label, rate, got.LookupHops, want.LookupHops)
				}
				if got.PerMethod[overlay.MethodRoutedRead].Messages > want.PerMethod[overlay.MethodRoutedRead].Messages {
					resent[rate]++
				}
			}
		}
	}
	for _, rate := range rates {
		if resent[rate] == 0 {
			t.Errorf("loss %v: no query re-sent a routed read in 16 seeds", rate)
		}
	}
}

// TestChurnDuringQueryE9 crashes a storage provider and an index node in
// the middle of a running E9 query — the crash windows are placed inside
// the query's own virtual-time span, measured on an identical twin
// deployment — and then exercises whole-node FailNode/RecoverNode churn
// between queries. At every step the result must be explained: either the
// typed partial-failure error, or a solution set bracketed by the two
// oracles (everything the live providers own, nothing the dataset does
// not), and after recovery plus republish the full oracle returns.
func TestChurnDuringQueryE9(t *testing.T) {
	p := Params{Seed: 11}
	d := e9Dataset(p)
	q := workload.QueryFig4("Smith")
	opts := fig4Opts(dqp.StrategyChain)
	fullOracle := centralOracle(t, d.UnionGraph(), q)

	providers := d.Providers()
	storageVictim := providers[len(providers)-1] // never "D00", the initiator
	const indexVictim = simnet.Addr("idx-05")
	liveOracle := centralOracle(t, unionExcept(d, storageVictim), q)
	if len(liveOracle) == len(fullOracle) {
		t.Logf("note: victim %s contributes no Fig. 4 solutions this seed", storageVictim)
	}

	// Probe run on a twin deployment: same Params build the same overlay
	// at the same virtual times, so the probe's span predicts exactly when
	// the real run's query is in flight.
	probe, err := buildDeployment(p, 8, d)
	if err != nil {
		t.Fatal(err)
	}
	t0 := probe.clock.Now()
	if _, _, err := probe.runQuery(opts, "D00", q); err != nil {
		t.Fatalf("probe query: %v", err)
	}
	t1 := probe.clock.Now()
	if t1 <= t0 {
		t.Fatalf("probe query spans no virtual time (%v..%v)", t0, t1)
	}
	span := t1 - t0

	churnOnce := func() (string, error) {
		dep, err := buildDeployment(p, 8, d)
		if err != nil {
			t.Fatal(err)
		}
		// Both victims die mid-query and recover before it would normally
		// finish — crash-mid-operation, deterministically scheduled.
		dep.sys.Net().SetFaults(&simnet.FaultPlan{
			Seed: p.seed(faultSeedBase),
			Crashes: []simnet.CrashWindow{
				{Node: simnet.Addr(storageVictim), From: t0 + span/4, Until: t0 + 3*span/4},
				{Node: indexVictim, From: t0 + span/3, Until: t0 + 2*span/3},
			},
		})
		res, _, err := dep.runQuery(opts, "D00", q)
		if err != nil {
			return fmt.Sprintf("error: %v", err), err
		}
		return solKey(res.Solutions), nil
	}

	out1, err1 := churnOnce()
	out2, err2 := churnOnce()
	if out1 != out2 {
		t.Errorf("same-seed churn runs differ:\n--- first ---\n%s\n--- again ---\n%s", out1, out2)
	}
	if err1 != nil {
		if !dqp.IsPartialFailure(err1) {
			t.Errorf("mid-query churn failed with an untyped error: %v", err1)
		}
	} else {
		// Success must mean a bracketed result: no fabricated solutions,
		// and nothing lost beyond the crashed provider's contribution.
		got := splitSols(out1)
		want := multisetCounts(fullOracle)
		for k, n := range got {
			if want[k] < n {
				t.Errorf("churn run fabricated solution %q", k)
			}
		}
		for k, n := range multisetCounts(liveOracle) {
			if got[k] < n {
				t.Errorf("churn run silently dropped solution %q held by a live provider", k)
			}
		}
		_ = err2
	}

	// Whole-node churn between queries: crash the provider outright, run
	// (the index must clean up and answer over the survivors), then
	// recover, republish and verify the full oracle returns.
	dep, err := buildDeployment(p, 8, d)
	if err != nil {
		t.Fatal(err)
	}
	dep.sys.FailNode(simnet.Addr(storageVictim))
	res, _, err := dep.runQuery(opts, "D00", q)
	if err != nil {
		if !dqp.IsPartialFailure(err) {
			t.Fatalf("query with crashed provider failed untyped: %v", err)
		}
	} else if lk, gk := solKey(liveOracle), solKey(res.Solutions); lk != gk {
		t.Errorf("crashed-provider query != live-provider oracle:\ngot  %s\nwant %s", gk, lk)
	}

	dep.sys.RecoverNode(simnet.Addr(storageVictim))
	done, err := dep.sys.Republish(simnet.Addr(storageVictim), dep.clock.Now())
	if err != nil {
		t.Fatalf("republish after recovery: %v", err)
	}
	dep.clock.Advance(done)
	res, _, err = dep.runQuery(opts, "D00", q)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if fk, gk := solKey(fullOracle), solKey(res.Solutions); fk != gk {
		t.Errorf("post-recovery query != full oracle:\ngot  %s\nwant %s", gk, fk)
	}
}

// splitSols parses a solKey transcript back into a count multiset.
func splitSols(s string) map[string]int {
	m := map[string]int{}
	for _, line := range strings.Split(s, "\n") {
		if line != "" {
			m[line]++
		}
	}
	return m
}
