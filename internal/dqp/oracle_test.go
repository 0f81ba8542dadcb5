package dqp

import (
	"fmt"
	"math/rand"
	"testing"
)

// e9Configs enumerates exactly the strategy matrix the E9 Fig. 4
// end-to-end experiment sweeps: three strategies × two conjunction
// operators × the two optimizer-flag corners.
func e9Configs() []Options {
	var out []Options
	for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		for _, cj := range []Conjunction{ConjPipeline, ConjParallelJoin} {
			for _, flags := range []struct{ push, reorder bool }{{false, false}, {true, true}} {
				out = append(out, Options{
					Strategy: st, Conjunction: cj, JoinSite: JoinSiteMoveSmall,
					PushFilters: flags.push, ReorderJoins: flags.reorder,
				})
			}
		}
	}
	return out
}

// TestDifferentialOracleE9Matrix evaluates every E9 strategy configuration
// against the centralized single-store oracle (eval.Eval over the union of
// all providers' triples) on seeded random workloads, published through
// the default parallel pipeline: every configuration must return the
// oracle's solution multiset. That the parallel publish path indexes
// exactly what the serial one does is overlay's TestMetamorphicIndexRebuild.
func TestDifferentialOracleE9Matrix(t *testing.T) {
	configs := e9Configs()
	t.Run("parallel-publish", func(t *testing.T) {
		for seed := int64(0); seed < 3; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(300 + seed))
				data := randomDataset(rng)
				sys, now := buildSystem(t, 3+int(seed), data)
				for q := 0; q < 3; q++ {
					query := randomQuery(rng)
					want := oracle(t, data, query)
					for _, opts := range configs {
						e := NewEngine(sys, opts)
						res, _, done, err := e.Query("P0", query, now)
						now = done
						if err != nil {
							t.Fatalf("query %s with %+v: %v", query, opts, err)
						}
						if !sameMultiset(res.Solutions, want) {
							t.Errorf("oracle mismatch for %s\nopts: %+v\ngot:  %v\nwant: %v",
								query, opts, res.Solutions, want)
						}
					}
				}
			})
		}
	})
}

// TestDifferentialOraclePaperQuery pins the matrix to the paper's running
// example: deterministic data, a conjunctive query with a shared join
// variable, all E9 configurations.
func TestDifferentialOraclePaperQuery(t *testing.T) {
	query := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE { ?x foaf:knows <http://example.org/carol> . ?x foaf:name ?n . }`
	data := paperData()
	want := oracle(t, data, query)
	if len(want) == 0 {
		t.Fatal("oracle returned no solutions; the fixture is broken")
	}
	sys, now := buildSystem(t, 4, data)
	for _, opts := range e9Configs() {
		e := NewEngine(sys, opts)
		res, _, done, err := e.Query("D1", query, now)
		now = done
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if !sameMultiset(res.Solutions, want) {
			t.Errorf("opts=%+v: got %v, want %v", opts, res.Solutions, want)
		}
	}
}
