package dqp

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/testutil"
	"adhocshare/internal/trace"
)

// overlapData holds every triple at two providers, so each chain hop and
// each basic fan-out response carries rows the accumulator already holds.
// A provider has exactly one triple per predicate, so every local match
// comes back as a single row and the golden's sequences are decided by
// provider order alone; the order of many rows from one provider's graph is
// TestLimitWithoutOrderIsSameSeedReproducible's subject.
func overlapData() map[string][]rdf.Triple {
	knows := func(s, o string) rdf.Triple { return rdf.Triple{S: ex(s), P: fp("knows"), O: ex(o)} }
	name := func(s string) rdf.Triple { return rdf.Triple{S: ex(s), P: fp("name"), O: rdf.NewLangLiteral(s, "en")} }
	return map[string][]rdf.Triple{
		"D0": {knows("alice", "bob"), name("bob")},
		"D1": {knows("alice", "bob"), name("carol")},
		"D2": {knows("bob", "carol"), name("bob")},
		"D3": {knows("carol", "alice"), name("alice")},
		"D4": {knows("bob", "carol"), name("carol")},
		"D5": {knows("carol", "alice"), name("alice")},
	}
}

// TestOverlappingProvidersSequenceAndStats pins, for all three Fig. 5
// strategies under both conjunction operators, the exact solution sequence
// and Stats of queries whose providers hold overlapping data. The golden
// file was generated at the parent of the change that replaced the per-hop
// Distinct(Union(acc, local)) by the incremental accumulator.
func TestOverlappingProvidersSequenceAndStats(t *testing.T) {
	queries := []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x ?y WHERE { ?x foaf:knows ?y . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x ?n ?y WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:name ?n . ?y foaf:knows <http://example.org/carol> . } }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:knows <http://example.org/carol> . }`,
	}
	data := overlapData()
	var got bytes.Buffer
	for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		for _, cj := range []Conjunction{ConjPipeline, ConjParallelJoin} {
			sys, now := buildSystem(t, 4, data)
			e := NewEngine(sys, Options{Strategy: st, Conjunction: cj, JoinSite: JoinSiteMoveSmall, PushFilters: true, ReorderJoins: true})
			for qi, q := range queries {
				res, stats, done, err := e.Query("D0", q, now)
				if err != nil {
					t.Fatalf("%v/%v query %d: %v", st, cj, qi, err)
				}
				now = done
				if !res.IsAsk && !sameMultiset(res.Solutions, oracle(t, data, q)) {
					t.Errorf("%v/%v query %d differs from the oracle", st, cj, qi)
				}
				fmt.Fprintf(&got, "%v %v q%d ask=%v %v\n", st, cj, qi, res.Ask, stats)
				methods := make([]string, 0, len(stats.PerMethod))
				for m := range stats.PerMethod {
					methods = append(methods, m)
				}
				sort.Strings(methods)
				for _, m := range methods {
					fmt.Fprintf(&got, "  %s %+v\n", m, stats.PerMethod[m])
				}
				for _, row := range res.Solutions {
					fmt.Fprintf(&got, "  %s\n", row.Key())
				}
			}
		}
	}
	testutil.CheckGolden(t, "overlap_sequence.golden", got.Bytes())
}

// TestDescribeSameSeedTranscript builds the same deployment twenty times
// and requires the span transcript of a DESCRIBE over several resources to
// be identical each time: one sequential sub-query runs per resource, so
// their order decides every span ID and start time.
func TestDescribeSameSeedTranscript(t *testing.T) {
	const q = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> DESCRIBE ?x WHERE { ?x foaf:knows <http://example.org/carol> . }`
	var first []trace.Span
	for run := 0; run < 20; run++ {
		sys, now := buildSystem(t, 4, paperData())
		buf := trace.NewBuffer()
		sys.Net().SetRecorder(buf)
		res, _, _, err := NewEngine(sys, DefaultOptions()).Query("D1", q, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Triples) == 0 {
			t.Fatal("DESCRIBE returned no triples")
		}
		if spans := buf.Spans(); run == 0 {
			first = spans
		} else if !reflect.DeepEqual(spans, first) {
			t.Fatalf("run %d: span transcript differs from the first run's", run)
		}
	}
}

// TestLimitWithoutOrderIsSameSeedReproducible builds the same deployment
// ten times and requires a LIMIT query without ORDER BY — whose rows are
// whichever come first — to answer with the same row sequence each time.
// Every provider holds thirty matches of the one pattern, so the sequence
// is decided by the order the storage nodes' graphs stream them in.
func TestLimitWithoutOrderIsSameSeedReproducible(t *testing.T) {
	const q = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x ?y WHERE { ?x foaf:knows ?y } LIMIT 3`
	data := map[string][]rdf.Triple{}
	for p := 1; p <= 4; p++ {
		name := fmt.Sprintf("D%d", p)
		for i := 0; i < 30; i++ {
			data[name] = append(data[name], rdf.Triple{S: ex(fmt.Sprintf("p%d-%d", p, i)), P: fp("knows"), O: ex(fmt.Sprintf("p%d-%d", p, (i+1)%30))})
		}
	}
	for name, opts := range map[string]Options{"default": DefaultOptions(), "baseline": BaselineOptions()} {
		var first eval.Solutions
		for run := 0; run < 10; run++ {
			sys, now := buildSystem(t, 5, data)
			res, _, _, err := NewEngine(sys, opts).Query("D1", q, now)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Solutions) != 3 {
				t.Fatalf("%s options: LIMIT 3 returned %d rows", name, len(res.Solutions))
			}
			if run == 0 {
				first = res.Solutions
			} else if !reflect.DeepEqual(res.Solutions, first) {
				t.Fatalf("%s options, deployment %d: rows %v, the first deployment answered %v", name, run, res.Solutions, first)
			}
		}
	}
}
