package dqp

import (
	"fmt"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
)

// TestBGPBuildsMappingsOnlyForItsResult: inside a BGP the partial solutions
// are flat rows, and only the rows the BGP returns become mappings. The
// first pattern matches 600 triples over two providers, the join with the
// second keeps 6, so a query that allocated per row of the first pattern —
// at the parent a mapping of two objects each — would allocate over 1,200
// objects; the whole query, parse to result, must stay below 600. Join
// reordering is off so that the large pattern runs first.
func TestBGPBuildsMappingsOnlyForItsResult(t *testing.T) {
	const rows, kept = 600, 6
	data := map[string][]rdf.Triple{}
	for i := 0; i < rows; i++ {
		d := fmt.Sprintf("D%d", 1+i%2)
		data[d] = append(data[d], rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex(fmt.Sprintf("q%d", i))})
	}
	for i := 0; i < kept; i++ {
		data["D3"] = append(data["D3"], rdf.Triple{S: ex(fmt.Sprintf("q%d", i*97)), P: fp("name"), O: rdf.NewLiteral(fmt.Sprint("Q", i))})
	}
	const q = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:name ?n . }`
	for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
		for _, cj := range []Conjunction{ConjPipeline, ConjParallelJoin} {
			sys, now := buildSystem(t, 4, data)
			e := NewEngine(sys, Options{Strategy: st, Conjunction: cj, JoinSite: JoinSiteMoveSmall})
			run := func() {
				res, _, done, err := e.Query("D1", q, now)
				if err != nil {
					t.Fatalf("%v/%v: %v", st, cj, err)
				}
				if len(res.Solutions) != kept {
					t.Fatalf("%v/%v: %d rows, want %d", st, cj, len(res.Solutions), kept)
				}
				now = done
			}
			if n := testing.AllocsPerRun(5, run); n >= rows {
				t.Errorf("%v/%v: a query joining %d rows down to %d allocates %.0f objects, want < %d", st, cj, rows, kept, n, rows)
			}
		}
	}
}

// TestQueryBuildsMappingsOnlyForItsResult: above the BGP the solutions stay
// flat rows too, so only the query's result rows become mappings. An
// OPTIONAL whose right side matches 600 triples keeps the 6 rows of its left
// side, and a FILTER(bound(?n)) above a UNION of those 600 and the 6 keeps
// the 6; a query that built a mapping per row of an operand — at the parent
// two objects each — would allocate over 1,200 objects. Each whole query,
// parse to result, must stay below 600.
func TestQueryBuildsMappingsOnlyForItsResult(t *testing.T) {
	const rows, kept = 600, 6
	data := map[string][]rdf.Triple{}
	for i := 0; i < rows; i++ {
		d := fmt.Sprintf("D%d", 1+i%2)
		data[d] = append(data[d], rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex(fmt.Sprintf("q%d", i))})
	}
	for i := 0; i < kept; i++ {
		data["D3"] = append(data["D3"], rdf.Triple{S: ex(fmt.Sprintf("q%d", i*97)), P: fp("name"), O: rdf.NewLiteral(fmt.Sprint("Q", i))})
	}
	for _, q := range []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT * WHERE { ?y foaf:name ?n . OPTIONAL { ?x foaf:knows ?y } }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT * WHERE { { ?x foaf:knows ?y } UNION { ?y foaf:name ?n } FILTER(bound(?n)) }`,
	} {
		for _, st := range []Strategy{StrategyBasic, StrategyChain, StrategyFreqChain} {
			for _, cj := range []Conjunction{ConjPipeline, ConjParallelJoin} {
				sys, now := buildSystem(t, 4, data)
				e := NewEngine(sys, Options{Strategy: st, Conjunction: cj, JoinSite: JoinSiteMoveSmall})
				run := func() {
					res, _, done, err := e.Query("D1", q, now)
					if err != nil {
						t.Fatalf("%s %v/%v: %v", q, st, cj, err)
					}
					if len(res.Solutions) != kept {
						t.Fatalf("%s %v/%v: %d rows, want %d", q, st, cj, len(res.Solutions), kept)
					}
					now = done
				}
				if n := testing.AllocsPerRun(5, run); n >= rows {
					t.Errorf("%s %v/%v: a query keeping %d rows of a %d-row operand allocates %.0f objects, want < %d", q, st, cj, kept, rows, n, rows)
				}
			}
		}
	}
}

// TestChainHopChargesItsMatchRequest: a chain hop carries the sub-query a
// store.match request carries, GRAPH scope and FROM NAMED graphs included,
// so with nothing accumulated and nowhere left to go it costs that request
// plus the empty set's 5-byte header (row count and cell width).
func TestChainHopChargesItsMatchRequest(t *testing.T) {
	var sample methodSample
	for _, s := range methodSamples() {
		if s.method == overlay.MethodDispatch {
			sample = s
		}
	}
	full := sample.req.(dispatchPayload).Sub
	for _, graph := range []rdf.Term{{}, rdf.NewIRI("urn:g1"), rdf.NewVar("g")} {
		for _, fromNamed := range [][]string{nil, {"urn:g2", "urn:g3"}} {
			req := full
			u := req.Units[0]
			u.Graph = graph
			req.Units, req.FromNamed = []overlay.MatchUnit{u}, fromNamed
			hop := overlay.ChainReq{Sub: req}
			if got, want := hop.SizeBytes(), req.SizeBytes()+5; got != want {
				t.Errorf("GRAPH %v, FROM NAMED %v: hop charged %d B, its match request %d B + 5", graph, fromNamed, got, want-5)
			}
		}
	}
}
