// Command adhoc-demo assembles a complete ad-hoc Semantic Web data
// sharing deployment — index ring, storage providers with generated FOAF
// data — and runs a set of SPARQL queries against it, printing solutions
// and the exact distributed-execution costs (messages, bytes, virtual
// response time) for each strategy.
//
// Usage:
//
//	adhoc-demo                       # default deployment and query tour
//	adhoc-demo -persons 500 -providers 20 -index 16
//	adhoc-demo -query 'SELECT ?x WHERE { ... }'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

func main() {
	persons := flag.Int("persons", 200, "people in the generated social network")
	providers := flag.Int("providers", 10, "storage nodes (data providers)")
	index := flag.Int("index", 8, "index nodes on the Chord ring")
	seed := flag.Int64("seed", 1, "workload seed")
	queryArg := flag.String("query", "", "run this single query instead of the tour")
	initiator := flag.String("initiator", "D00", "node issuing the queries")
	dataFile := flag.String("data", "", "load triples from a Turtle or N-Triples file instead of generating FOAF data (distributed over providers by subject)")
	flag.Parse()

	var d *workload.Dataset
	if *dataFile != "" {
		var err error
		d, err = loadDataset(*dataFile, *providers)
		check(err)
	} else {
		d = workload.Generate(workload.Config{
			Persons: *persons, Providers: *providers, AvgKnows: 4,
			ZipfS: 1.3, KnowsNothingFraction: 0.3, Seed: *seed,
		})
	}
	sys := overlay.NewSystem(overlay.Config{
		Bits: 24, Replication: 2,
		Net: simnet.Config{BaseLatency: 2 * time.Millisecond, Bandwidth: 1 << 20},
	})
	now := simnet.VTime(0)
	fmt.Printf("building overlay: %d index nodes, %d providers, %d triples\n",
		*index, *providers, d.TotalTriples())
	for i := 0; i < *index; i++ {
		var err error
		_, now, err = sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		check(err)
	}
	now = sys.Converge(now)
	for _, name := range d.Providers() {
		var err error
		_, now, err = sys.AddStorageNode(simnet.Addr(name), now)
		check(err)
		now, err = sys.Publish(simnet.Addr(name), d.ByProvider[name], now)
		check(err)
	}
	fmt.Printf("published: %d postings across %d location tables (virtual time %v)\n\n",
		sys.TotalPostings(), len(sys.IndexNodes()), now.Duration())

	queries := map[string]string{}
	switch {
	case *queryArg != "":
		queries["custom"] = *queryArg
	case *dataFile != "":
		queries["all-triples"] = workload.QueryAll()
	default:
		queries["fig5-primitive"] = workload.QueryPrimitive(d.PopularPerson)
		queries["fig6-conjunction"] = workload.QueryConjunction()
		queries["fig7-optional"] = workload.QueryOptional("Smith")
		queries["fig8-union"] = workload.QueryUnion(d.PopularPerson)
		queries["fig9-filter"] = workload.QueryFilter("Smith")
		queries["fig4-full"] = workload.QueryFig4("Smith")
	}

	strategies := []struct {
		name string
		opts dqp.Options
	}{
		{"basic     ", dqp.BaselineOptions()},
		{"default   ", dqp.DefaultOptions()},
	}
	for name, q := range queries {
		fmt.Printf("--- %s ---\n%s\n", name, q)
		for _, s := range strategies {
			e := dqp.NewEngine(sys, s.opts)
			res, stats, done, err := e.Query(simnet.Addr(*initiator), q, now)
			check(err)
			now = done
			fmt.Printf("  %s %d solutions | %d msgs | %.1f KiB total | %.1f KiB solutions | %.1f ms\n",
				s.name, len(res.Solutions), stats.Messages,
				float64(stats.Bytes)/1024,
				float64(stats.ShippedSolutionBytes())/1024,
				float64(stats.ResponseTime)/float64(time.Millisecond))
		}
		// show up to three solutions from the default run
		e := dqp.NewEngine(sys, dqp.DefaultOptions())
		res, _, done, err := e.Query(simnet.Addr(*initiator), q, now)
		check(err)
		now = done
		for i, b := range res.Solutions {
			if i == 3 {
				fmt.Printf("  ... %d more\n", len(res.Solutions)-3)
				break
			}
			fmt.Printf("  %s\n", b)
		}
		fmt.Println()
	}
}

// loadDataset reads a Turtle (or N-Triples, a Turtle subset) file and
// partitions the triples across providers by subject hash, modelling each
// subject's description living with one provider.
func loadDataset(path string, providers int) (*workload.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	triples, err := rdf.ParseTurtle(f)
	if err != nil {
		return nil, err
	}
	d := &workload.Dataset{ByProvider: map[string][]rdf.Triple{}}
	for i := 0; i < providers; i++ {
		d.ByProvider[fmt.Sprintf("D%02d", i)] = nil
	}
	for _, t := range triples {
		h := 0
		for _, c := range t.S.Value {
			h = h*31 + int(c)
		}
		if h < 0 {
			h = -h
		}
		name := fmt.Sprintf("D%02d", h%providers)
		d.ByProvider[name] = append(d.ByProvider[name], t)
	}
	return d, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhoc-demo:", err)
		os.Exit(1)
	}
}
