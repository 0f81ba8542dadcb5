package experiments

import (
	"testing"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

// TestSubQueryRequestsStayBelowRepliesAtJoinMixScale runs the benchmark's
// five query classes under the baseline options (basic fan-out, pipeline)
// on a deployment of join_mix's size — 1000 persons over 20 providers
// behind 16 index nodes, an order of magnitude past the experiment tables —
// and holds each query to the claim the key rule makes: a target is sent
// keys only where they are smaller than the rows they can spare, so what
// the store.match requests of a query carry never outweighs what its replies
// bring back. The answers are held to the centralized oracle.
func TestSubQueryRequestsStayBelowRepliesAtJoinMixScale(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		d := workload.Generate(workload.Config{
			Persons: 1000, Providers: 20, AvgKnows: 4, ZipfS: 1.3,
			KnowsNothingFraction: 0.3, Seed: seed,
		})
		dep, err := buildDeployment(Params{}, 16, d)
		if err != nil {
			t.Fatal(err)
		}
		union := d.UnionGraph()
		providers := d.Providers()
		classes := []struct{ name, q string }{
			{"conj", workload.QueryConjunction()},
			{"optional", workload.QueryOptional("Smith")},
			{"union", workload.QueryUnion(d.PopularPerson)},
			{"filter", workload.QueryFilter("Smith")},
			{"fig4", workload.QueryFig4("Smith")},
		}
		for i, c := range classes {
			before := dep.sys.Net().Metrics()
			res, _, err := dep.runQuery(dqp.BaselineOptions(), providers[i%len(providers)], c.q)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, c.name, err)
			}
			sent := dep.sys.Net().Metrics().Sub(before).PerDirection
			req := sent[simnet.DirRequest][overlay.MethodMatch].Bytes
			resp := sent[simnet.DirResponse][overlay.MethodMatch].Bytes
			t.Logf("seed %d, %s: store.match requests %d B, replies %d B", seed, c.name, req, resp)
			if req > resp {
				t.Errorf("seed %d, %s: store.match requests carry %d B for %d B of replies", seed, c.name, req, resp)
			}
			want := centralOracle(t, union, c.q)
			if len(want) == 0 {
				t.Errorf("seed %d, %s: the oracle's answer is empty — the class no longer exercises its join", seed, c.name)
			}
			if solKey(res.Solutions) != solKey(want) {
				t.Errorf("seed %d, %s: %d solutions, the centralized oracle has %d", seed, c.name, len(res.Solutions), len(want))
			}
		}
	}
}
