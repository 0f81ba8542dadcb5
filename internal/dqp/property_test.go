package dqp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/eval"
)

// TestRandomizedDistributedOracleEquivalence generates random small
// datasets and random queries (randomQuery: BGPs with random bound/unbound
// positions and numeric filters, under OPTIONAL, UNION, group joins and the
// solution modifiers), runs each under every strategy × conjunction ×
// join-site policy with the remaining options drawn at random, and checks
// that the distributed execution always matches the centralized oracle.
// This is the system-level property backing every per-feature test. Each
// query also runs on two fresh same-seed deployments, which must answer with
// the same row sequence.
func TestRandomizedDistributedOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized property test")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := randomDataset(rng)
			nIndex := 3 + rng.Intn(4)
			sys, now := buildSystem(t, nIndex, data)
			for q := 0; q < 10; q++ {
				query := randomQuery(rng)
				want := oracle(t, data, query)
				opts := randomOptions(rng)
				for _, opts.Strategy = range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
					for _, opts.Conjunction = range []Conjunction{ConjPipeline, ConjParallelJoin} {
						for _, opts.JoinSite = range []JoinSitePolicy{JoinSiteMoveSmall, JoinSiteQuerySite, JoinSiteThirdSite, JoinSiteQoS} {
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
				var first eval.Solutions
				for run := 0; run < 2; run++ {
					fresh, at := buildSystem(t, nIndex, data)
					res, _, _, err := NewEngine(fresh, opts).Query("P0", query, at)
					if err != nil {
						t.Fatalf("query %s with %+v on a fresh deployment: %v", query, opts, err)
					}
					if run == 0 {
						first = res.Solutions
					} else if !reflect.DeepEqual(res.Solutions, first) {
						t.Errorf("two fresh deployments answer %s with %+v in different sequences:\n%v\n%v",
							query, opts, first, res.Solutions)
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

// randomQuery builds a query over randomDataset's vocabulary: one group,
// or two under UNION or joined side by side ({…} {…}). A group is a BGP
// (randomGroup) that may be followed by an OPTIONAL, with or without a
// filter of its own, and then by FILTER(!bound(?o)) on the variable only the
// OPTIONAL binds. Then DISTINCT, or ORDER BY over every variable the
// generator uses, with LIMIT and OFFSET, and REDUCED over that order. A
// total order makes the rows a slice keeps, and the duplicates REDUCED
// drops, independent of the sequence the rows arrived in, so the answer
// stays comparable with the oracle's as a multiset.
func randomQuery(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nSELECT ")
	ordered := rng.Intn(4) == 0
	switch {
	case ordered && rng.Intn(2) == 0:
		sb.WriteString("REDUCED ")
	case rng.Intn(3) == 0:
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString("* WHERE {\n")
	switch rng.Intn(5) {
	case 0:
		sb.WriteString(" {\n")
		randomGroup(rng, &sb, 2, false)
		sb.WriteString(" } UNION {\n")
		randomGroup(rng, &sb, 2, false)
		sb.WriteString(" }\n")
	case 1:
		// ?o, which both groups' OPTIONALs bind, is a join variable either
		// side may leave unbound
		sb.WriteString(" {\n")
		randomGroup(rng, &sb, 2, true)
		sb.WriteString(" } {\n")
		randomGroup(rng, &sb, 2, true)
		sb.WriteString(" }\n")
	default:
		randomGroup(rng, &sb, 4, false)
	}
	sb.WriteString("}")
	if ordered {
		sb.WriteString("\nORDER BY")
		for _, v := range []string{"a", "b", "c", "d", "e", "f", "age", "o", "n"} {
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, " DESC(?%s)", v)
			} else {
				fmt.Fprintf(&sb, " ?%s", v)
			}
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(5))
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " OFFSET %d", rng.Intn(4))
		}
	}
	return sb.String()
}

// randomGroup writes a 1-maxPats pattern BGP with random constant
// positions, optionally a numeric filter, and — always when optional is
// set, else in one group of three — an OPTIONAL binding ?o (and ?n) from a
// subject variable of the BGP. One
// pattern in eight repeats a variable (?a foaf:knows ?a) and one in eight
// starts a component of its own (?e foaf:likes ?f, sharing nothing: a cross
// product).
func randomGroup(rng *rand.Rand, sb *strings.Builder, maxPats int, optional bool) {
	nPats := 1 + rng.Intn(maxPats)
	vars := []string{"a", "b", "c", "d"}
	withAge := false
	subjects := []string{"a"}
	for i := 0; i < nPats; i++ {
		switch rng.Intn(8) {
		case 0:
			v := vars[rng.Intn(2)]
			fmt.Fprintf(sb, "  ?%s foaf:knows ?%s .\n", v, v)
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
			v := vars[rng.Intn(2)] // bias toward shared vars
			s = "?" + v
			subjects = append(subjects, v)
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
		fmt.Fprintf(sb, "  %s %s %s .\n", s, p, o)
	}
	if withAge && rng.Intn(2) == 0 {
		fmt.Fprintf(sb, "  FILTER(?age >= %d)\n", rng.Intn(40))
	}
	if !optional && rng.Intn(3) != 0 {
		return
	}
	subj := subjects[rng.Intn(len(subjects))]
	fmt.Fprintf(sb, "  OPTIONAL { ?%s foaf:%s ?o .", subj, []string{"knows", "likes"}[rng.Intn(2)])
	if rng.Intn(2) == 0 {
		sb.WriteString(" ?o foaf:name ?n .")
	}
	switch rng.Intn(3) {
	case 0: // a condition over both sides of the left join
		fmt.Fprintf(sb, " FILTER(?o != ?%s)", vars[rng.Intn(2)])
	case 1:
		fmt.Fprintf(sb, " FILTER(bound(?%s))", vars[rng.Intn(len(vars))])
	}
	sb.WriteString(" }\n")
	if rng.Intn(3) == 0 {
		sb.WriteString("  FILTER(!bound(?o))\n")
	}
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
