package dqp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
)

// TestRandomizedDistributedOracleEquivalence generates random small
// datasets and random BGP queries (with random bound/unbound positions and
// optional numeric filters), runs each under every strategy and both
// conjunctions with the remaining options drawn at random, and checks that
// the distributed execution always matches the centralized oracle. This
// is the system-level property backing every per-feature test.
func TestRandomizedDistributedOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := randomDataset(rng)
			sys, now := buildSystem(t, 3+rng.Intn(4), data)
			for q := 0; q < 6; q++ {
				query := randomQuery(rng)
				want := oracle(t, data, query)
				opts := randomOptions(rng)
				for _, opts.Strategy = range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
					for _, opts.Conjunction = range []Conjunction{ConjPipeline, ConjParallelJoin} {
						e := NewEngine(sys, opts)
						res, _, done, err := e.Query("P0", query, now)
						now = done
						if err != nil {
							t.Fatalf("query %s with %+v: %v", query, opts, err)
						}
						if !sameMultiset(res.Solutions, want) {
							t.Errorf("mismatch for %s\nopts: %+v\ngot:  %v\nwant: %v",
								query, opts, res.Solutions, want)
						}
					}
				}
			}
		})
	}
}

// randomDataset spreads a small random graph over 2-5 providers, with
// deliberate cross-provider duplication of some triples.
func randomDataset(rng *rand.Rand) map[string][]rdf.Triple {
	nProviders := 2 + rng.Intn(4)
	nTriples := 10 + rng.Intn(40)
	subjects := 4 + rng.Intn(6)
	preds := []rdf.Term{fp("knows"), fp("likes"), fp("age"), fp("name")}
	data := map[string][]rdf.Triple{}
	for i := 0; i < nProviders; i++ {
		data[fmt.Sprintf("P%d", i)] = nil
	}
	for i := 0; i < nTriples; i++ {
		s := ex(fmt.Sprintf("s%d", rng.Intn(subjects)))
		p := preds[rng.Intn(len(preds))]
		var o rdf.Term
		switch p.Value {
		case foaf + "age":
			o = rdf.NewInteger(int64(rng.Intn(50)))
		case foaf + "name":
			o = rdf.NewLiteral(fmt.Sprintf("Name%d", rng.Intn(subjects)))
		default:
			o = ex(fmt.Sprintf("s%d", rng.Intn(subjects)))
		}
		tr := rdf.Triple{S: s, P: p, O: o}
		prov := fmt.Sprintf("P%d", rng.Intn(nProviders))
		data[prov] = append(data[prov], tr)
		if rng.Intn(4) == 0 { // duplicate the fact at another provider
			other := fmt.Sprintf("P%d", rng.Intn(nProviders))
			data[other] = append(data[other], tr)
		}
	}
	return data
}

// randomQuery builds a 1-4 pattern BGP with random constant positions,
// optionally a numeric filter, optionally DISTINCT. One pattern in eight
// repeats a variable (?a foaf:knows ?a) and one in eight starts a component
// of its own (?e foaf:likes ?f, sharing nothing: a cross product).
func randomQuery(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nSELECT ")
	if rng.Intn(3) == 0 {
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString("* WHERE {\n")
	nPats := 1 + rng.Intn(4)
	vars := []string{"a", "b", "c", "d"}
	withAge := false
	for i := 0; i < nPats; i++ {
		switch rng.Intn(8) {
		case 0:
			v := vars[rng.Intn(2)]
			fmt.Fprintf(&sb, "  ?%s foaf:knows ?%s .\n", v, v)
			continue
		case 1:
			sb.WriteString("  ?e foaf:likes ?f .\n")
			continue
		}
		// subject: shared variable or constant
		var s string
		if rng.Intn(3) == 0 {
			s = fmt.Sprintf("<http://example.org/s%d>", rng.Intn(6))
		} else {
			s = "?" + vars[rng.Intn(2)] // bias toward shared vars
		}
		var p, o string
		switch rng.Intn(4) {
		case 0:
			p, o = "foaf:knows", randomObject(rng, vars)
		case 1:
			p, o = "foaf:likes", randomObject(rng, vars)
		case 2:
			p = "foaf:age"
			o = "?age"
			withAge = true
		default:
			p = "foaf:name"
			if rng.Intn(2) == 0 {
				o = fmt.Sprintf("%q", fmt.Sprintf("Name%d", rng.Intn(6)))
			} else {
				o = "?" + vars[2+rng.Intn(2)]
			}
		}
		fmt.Fprintf(&sb, "  %s %s %s .\n", s, p, o)
	}
	if withAge && rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "  FILTER(?age >= %d)\n", rng.Intn(40))
	}
	sb.WriteString("}")
	return sb.String()
}

func randomObject(rng *rand.Rand, vars []string) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("<http://example.org/s%d>", rng.Intn(6))
	}
	return "?" + vars[rng.Intn(len(vars))]
}

func randomOptions(rng *rand.Rand) Options {
	return Options{
		Strategy:     Strategy(rng.Intn(3)),
		Conjunction:  Conjunction(rng.Intn(2)),
		JoinSite:     JoinSitePolicy(rng.Intn(4)),
		PushFilters:  rng.Intn(2) == 0,
		ReorderJoins: rng.Intn(2) == 0,
		CacheLookups: rng.Intn(2) == 0,
	}
}
