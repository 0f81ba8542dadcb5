// Quickstart: build a small ad-hoc sharing network with three personal
// devices, publish FOAF triples, and run a distributed SPARQL query.
package main

import (
	"fmt"
	"log"

	"adhocshare"
)

const foaf = "http://xmlns.com/foaf/0.1/"

func person(id string) adhocshare.Term {
	return adhocshare.NewIRI("http://example.org/people/" + id)
}

func main() {
	// A deployment with 5 index nodes (ring members willing to host index
	// entries for others). Virtual network: 2ms hops, 1 MiB/s links.
	sys, err := adhocshare.NewSystem(adhocshare.Config{IndexNodes: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Three providers — each keeps its own data; only index postings
	// (six hash keys per triple) travel to the ring.
	err = sys.AddProvider("alice-laptop", []adhocshare.Triple{
		{S: person("alice"), P: adhocshare.NewIRI(foaf + "name"), O: adhocshare.NewLiteral("Alice Smith")},
		{S: person("alice"), P: adhocshare.NewIRI(foaf + "knows"), O: person("bob")},
		{S: person("alice"), P: adhocshare.NewIRI(foaf + "knows"), O: person("carol")},
	})
	if err != nil {
		log.Fatal(err)
	}
	err = sys.AddProvider("bob-phone", []adhocshare.Triple{
		{S: person("bob"), P: adhocshare.NewIRI(foaf + "name"), O: adhocshare.NewLiteral("Bob Jones")},
		{S: person("bob"), P: adhocshare.NewIRI(foaf + "knows"), O: person("carol")},
		{S: person("bob"), P: adhocshare.NewIRI(foaf + "nick"), O: adhocshare.NewLiteral("Shrek")},
	})
	if err != nil {
		log.Fatal(err)
	}
	err = sys.AddProvider("carol-tablet", []adhocshare.Triple{
		{S: person("carol"), P: adhocshare.NewIRI(foaf + "name"), O: adhocshare.NewLiteral("Carol Smith")},
		{S: person("carol"), P: adhocshare.NewIRI(foaf + "age"), O: adhocshare.NewInteger(29)},
	})
	if err != nil {
		log.Fatal(err)
	}

	snap := sys.Snapshot()
	fmt.Printf("network: %d index nodes, %d providers, %d triples, %d postings\n\n",
		snap.IndexNodes, snap.StorageNodes, snap.TotalTriples, snap.TotalPostings)

	// Alice asks: who knows Carol? The query is parsed, translated to the
	// SPARQL algebra, optimized and executed across the overlay.
	query := `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x ?n WHERE {
  ?x foaf:knows <http://example.org/people/carol> .
  ?x foaf:name ?n .
}
ORDER BY ?n`
	res, stats, err := sys.Query("alice-laptop", query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("who knows carol?")
	for _, b := range res.Solutions {
		fmt.Printf("  %s (%s)\n", b["n"].Value, b["x"])
	}
	fmt.Printf("\ncost: %d messages, %d bytes, %v virtual response time\n",
		stats.Messages, stats.Bytes, stats.ResponseTime)
	plan, err := sys.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s\n", plan)
}
