package experiments

import (
	"fmt"

	"adhocshare/internal/dqp"
	"adhocshare/internal/workload"
)

// E14LookupCache measures the initiator-side lookup cache (extension): a
// node repeatedly querying the same patterns skips the location-table
// reads after warm-up, and the cache invalidates correctly under storage
// churn. Uncached, the provider already reads each row in one direct call
// to the owner whose arc it learned publishing, so the cache saves that
// call, not Chord hops.
func E14LookupCache(p Params) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Caption: "Initiator lookup cache across repeated queries (extension)",
		Headers: []string{"run", "cache", "hops", "index-KiB", "total-KiB", "resp-ms", "drops"},
	}
	d := workload.Generate(workload.Config{
		Persons: 200, Providers: 10, AvgKnows: 4, ZipfS: 1.3, Seed: p.seed(13),
	})
	q := workload.QueryPrimitive(d.PopularPerson)
	var cold, warm dqp.Stats // run 1 without the cache, run 2 with it
	for _, cached := range []bool{false, true} {
		dep, err := buildDeployment(p, 8, d)
		if err != nil {
			return nil, err
		}
		e := dqp.NewEngine(dep.sys, dqp.Options{
			Strategy: dqp.StrategyFreqChain, CacheLookups: cached,
		})
		for run := 1; run <= 3; run++ {
			_, stats, done, err := e.Query("D00", q, dep.clock.Now())
			dep.clock.Advance(done)
			if err != nil {
				return nil, err
			}
			t.AddRow(run, cached, stats.LookupHops, kb(stats.IndexBytes()),
				kb(stats.Bytes), ms(stats.ResponseTime), stats.StaleDrops)
			switch {
			case !cached && run == 1:
				cold = stats
			case cached && run == 2:
				warm = stats
			}
		}
		// churn under a warm cache: fail a provider and query twice
		if cached {
			dep.sys.FailNode("D03")
			for run := 4; run <= 5; run++ {
				_, stats, done, err := e.Query("D00", q, dep.clock.Now())
				dep.clock.Advance(done)
				if err != nil {
					return nil, err
				}
				t.AddRow(run, "true+churn", stats.LookupHops, kb(stats.IndexBytes()),
					kb(stats.Bytes), ms(stats.ResponseTime), stats.StaleDrops)
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("without the cache a run reads its rows in %d hops (a provider reads a row straight from an owner whose arc it learned publishing); with it, runs 2+ send no index message: index %s -> %s KiB, %s -> %s ms",
			cold.LookupHops, kb(cold.IndexBytes()), kb(warm.IndexBytes()), ms(cold.ResponseTime), ms(warm.ResponseTime)),
		"run 4 (after a provider crash) observes the timeout once and invalidates; run 5 is clean — the cache follows the Sect. III-D stale-entry rule")
	return t, nil
}
