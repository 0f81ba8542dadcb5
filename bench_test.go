package adhocshare

// Micro-benchmarks for the hot paths: distributed queries on one small
// deployment, reporting the domain metrics (messages, KiB, virtual
// response time) alongside Go's time/op, and the substrate (parsing,
// algebra evaluation, joins, DHT lookups, index publication). They are the
// `-bench X -cpuprofile/-memprofile` entry points; the repository's
// benchmark, with set-up timed apart from steady state, is bench/.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/workload"
)

// ---- distributed query micro-benchmarks with domain metrics ----

// benchDeployment builds a reusable deployment for query benchmarks.
func benchDeployment(b *testing.B, persons, providers, index int) (*overlay.System, *workload.Dataset, simnet.VTime) {
	b.Helper()
	d := workload.Generate(workload.Config{
		Persons: persons, Providers: providers, AvgKnows: 4,
		ZipfS: 1.3, KnowsNothingFraction: 0.3, Seed: 9,
	})
	sys := overlay.NewSystem(overlay.Config{Bits: 24, Replication: 2,
		Net: simnet.Config{BaseLatency: 2 * time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < index; i++ {
		var err error
		_, now, err = sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			b.Fatal(err)
		}
	}
	now = sys.Converge(now)
	for _, name := range d.Providers() {
		var err error
		_, now, err = sys.AddStorageNode(simnet.Addr(name), now)
		if err != nil {
			b.Fatal(err)
		}
		now, err = sys.Publish(simnet.Addr(name), d.ByProvider[name], now)
		if err != nil {
			b.Fatal(err)
		}
	}
	return sys, d, now
}

func benchQuery(b *testing.B, opts dqp.Options, mkQuery func(*workload.Dataset) string) {
	b.Helper()
	sys, d, now := benchDeployment(b, 200, 10, 8)
	query := mkQuery(d)
	e := dqp.NewEngine(sys, opts)
	var last dqp.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, done, err := e.Query("D00", query, now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
		last = stats
	}
	b.ReportMetric(float64(last.Messages), "msgs/query")
	b.ReportMetric(float64(last.Bytes)/1024, "KiB/query")
	b.ReportMetric(float64(last.ResponseTime)/float64(time.Millisecond), "vms/query")
}

func BenchmarkQueryPrimitiveBasic(b *testing.B) {
	benchQuery(b, dqp.Options{Strategy: dqp.StrategyBasic},
		func(d *workload.Dataset) string { return workload.QueryPrimitive(d.PopularPerson) })
}

func BenchmarkQueryPrimitiveFreqChain(b *testing.B) {
	benchQuery(b, dqp.Options{Strategy: dqp.StrategyFreqChain},
		func(d *workload.Dataset) string { return workload.QueryPrimitive(d.PopularPerson) })
}

func BenchmarkQueryFig4Baseline(b *testing.B) {
	benchQuery(b, dqp.BaselineOptions(),
		func(d *workload.Dataset) string { return workload.QueryFig4("Smith") })
}

func BenchmarkQueryFig4Optimized(b *testing.B) {
	benchQuery(b, dqp.DefaultOptions(),
		func(d *workload.Dataset) string { return workload.QueryFig4("Smith") })
}

// ---- substrate micro-benchmarks ----

func BenchmarkSPARQLParse(b *testing.B) {
	q := workload.QueryFig4("Smith")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgebraTranslateOptimize(b *testing.B) {
	q, err := sparql.Parse(workload.QueryFilter("Smith"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op, err := algebra.Translate(q)
		if err != nil {
			b.Fatal(err)
		}
		optimize.Optimize(op, optimize.DefaultOptions())
	}
}

func BenchmarkGraphMatch(b *testing.B) {
	d := workload.Generate(workload.Config{Persons: 500, Providers: 1, Seed: 2})
	g := d.UnionGraph()
	pat := rdf.Triple{S: rdf.NewVar("s"), P: rdf.NewIRI(workload.FOAF + "knows"), O: d.PopularPerson}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(pat)
	}
}

// BenchmarkGraphAddRemove is the write side: one op loads a 500-person
// graph triple by triple and retracts it again in the same order.
func BenchmarkGraphAddRemove(b *testing.B) {
	d := workload.Generate(workload.Config{Persons: 500, Providers: 1, Seed: 2})
	ts := d.UnionGraph().Triples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rdf.NewGraph()
		for _, t := range ts {
			g.Add(t)
		}
		for _, t := range ts {
			g.Remove(t)
		}
	}
	b.ReportMetric(float64(len(ts)), "triples/op")
}

func BenchmarkLocalEvalFig4(b *testing.B) {
	d := workload.Generate(workload.Config{Persons: 300, Providers: 1, KnowsNothingFraction: 0.4, Seed: 2})
	g := d.UnionGraph()
	q, err := sparql.Parse(workload.QueryFig4("Smith"))
	if err != nil {
		b.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		b.Fatal(err)
	}
	op = optimize.Optimize(op, optimize.Options{PushFilters: true, ReorderBGP: true,
		Estimator: optimize.GraphEstimator{G: g}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Eval(op, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolutionJoin(b *testing.B) {
	mk := func(n int, vars ...string) eval.Solutions {
		var s eval.Solutions
		for i := 0; i < n; i++ {
			m := eval.NewBinding()
			for _, v := range vars {
				m[v] = rdf.NewIRI(fmt.Sprintf("http://x/%s/%d", v, i%50))
			}
			s = append(s, m)
		}
		return s
	}
	l := mk(500, "x", "y")
	r := mk(500, "y", "z")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Join(l, r)
	}
}

func BenchmarkChordLookup(b *testing.B) {
	net := simnet.New(simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20})
	refs := make([]chord.Ref, 0, 64)
	seen := map[chord.ID]bool{}
	for i := 0; len(refs) < 64; i++ {
		addr := simnet.Addr(fmt.Sprintf("n%03d", i))
		id := chord.HashID(string(addr), 24)
		if seen[id] {
			continue
		}
		seen[id] = true
		refs = append(refs, chord.Ref{ID: id, Addr: addr})
	}
	nodes, now, err := chord.BuildRing(net, refs, chord.Config{Bits: 24}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, done, err := nodes[i%len(nodes)].Lookup(chord.HashID(fmt.Sprint(i), 24), now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

func BenchmarkPublishTriples(b *testing.B) {
	d := workload.Generate(workload.Config{Persons: 50, Providers: 1, Seed: 4})
	triples := d.ByProvider["D00"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := overlay.NewSystem(overlay.Config{Bits: 24, Replication: 2,
			Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
		now := simnet.VTime(0)
		for j := 0; j < 6; j++ {
			var err error
			_, now, err = sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%d", j)), now)
			if err != nil {
				b.Fatal(err)
			}
		}
		now = sys.Converge(now)
		_, now, err := sys.AddStorageNode("D00", now)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.Publish("D00", triples, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(triples)), "triples/op")
}

func BenchmarkNTriplesParse(b *testing.B) {
	d := workload.Generate(workload.Config{Persons: 200, Providers: 1, Seed: 6})
	var sb strings.Builder
	if err := rdf.WriteNTriples(&sb, d.ByProvider["D00"]); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseNTriples(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}
