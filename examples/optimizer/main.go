// Optimizer tour: shows the Fig. 3 workflow stages on the paper's own
// queries — parse → algebra → rewrites — and then measures how each
// optimization knob (strategy, conjunction mode, filter pushing, join
// reordering, join-site policy) changes the cost of the same query on the
// same deployment.
package main

import (
	"fmt"
	"log"
	"time"

	"adhocshare"
	"adhocshare/internal/workload"
)

func main() {
	data := workload.Generate(workload.Config{
		Persons: 250, Providers: 10, AvgKnows: 4,
		ZipfS: 1.3, KnowsNothingFraction: 0.4, Seed: 5,
	})
	sys, err := adhocshare.NewSystem(adhocshare.Config{IndexNodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range data.Providers() {
		if err := sys.AddProvider(name, data.ByProvider[name]); err != nil {
			log.Fatal(err)
		}
	}

	// Stage 1-3 of Fig. 3: the algebra plan, before and after rewrites.
	query := workload.QueryFilter("Smith")
	fmt.Println("query (paper Fig. 9):")
	fmt.Println(query)
	plan, err := sys.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimized plan: %s\n", plan)
	fmt.Println("(the regex filter has been pushed inside the LeftJoin's mandatory side — the Sect. IV-G rewrite)")

	// Stage 4-6: execution under every knob.
	fmt.Printf("\n%-52s %5s %9s %9s %8s\n", "configuration", "sols", "totalKiB", "solKiB", "resp-ms")
	configs := []struct {
		name string
		opts adhocshare.QueryOptions
	}{
		{"basic fan-out, pipeline, no rewrites", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyBasic, Conjunction: adhocshare.ConjPipeline}},
		{"chain, pipeline, no rewrites", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyChain, Conjunction: adhocshare.ConjPipeline}},
		{"chain, pipeline, +filter pushing", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyChain, Conjunction: adhocshare.ConjPipeline,
			PushFilters: true}},
		{"chain, pipeline, +pushing +reordering", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyChain, Conjunction: adhocshare.ConjPipeline,
			PushFilters: true, ReorderJoins: true}},
		{"freq-chain, pipeline, +pushing +reordering", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyFreqChain, Conjunction: adhocshare.ConjPipeline,
			PushFilters: true, ReorderJoins: true}},
		{"basic wave, parallel-join, +push +reorder (default)", adhocshare.DefaultQueryOptions()},
		{"freq-chain, parallel-join (the paper's full opt.)", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyFreqChain, Conjunction: adhocshare.ConjParallelJoin,
			PushFilters: true, ReorderJoins: true}},
		{"freq-chain, parallel-join, query-site joins", adhocshare.QueryOptions{
			Strategy: adhocshare.StrategyFreqChain, Conjunction: adhocshare.ConjParallelJoin,
			JoinSite: adhocshare.JoinSiteQuerySite, PushFilters: true, ReorderJoins: true}},
	}
	var expect int = -1
	for _, c := range configs {
		res, stats, err := sys.QueryWith("D00", query, c.opts)
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		if expect == -1 {
			expect = len(res.Solutions)
		} else if len(res.Solutions) != expect {
			log.Fatalf("%s: returned %d solutions, expected %d", c.name, len(res.Solutions), expect)
		}
		fmt.Printf("%-52s %5d %9.1f %9.1f %8.1f\n", c.name, len(res.Solutions),
			float64(stats.Bytes)/1024,
			float64(stats.ShippedSolutionBytes())/1024,
			float64(stats.ResponseTime)/float64(time.Millisecond))
	}
	fmt.Println("\nall configurations return identical solutions; only the costs move —")
	fmt.Println("the transmission/response-time trade-off of the paper's Sect. V.")
}
