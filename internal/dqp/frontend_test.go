package dqp

import (
	"fmt"
	"math/rand"
	"testing"

	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/workload"
)

// pointLookupQueries are the three query shapes of the point_lookup
// benchmark workload, about one person: who knows them, their name, and
// everything about them.
func pointLookupQueries() []string {
	person := workload.PersonIRI(7)
	return []string{
		workload.QueryPrimitive(person),
		fmt.Sprintf("PREFIX foaf: <%s>\nSELECT ?n WHERE { %s foaf:name ?n . }", workload.FOAF, person),
		fmt.Sprintf("SELECT ?q ?o WHERE { %s ?q ?o . }", person),
	}
}

// TestFrontEndAllocsPerQuery pins the allocations of the text → plan path
// on the point_lookup queries: tokens are views of the query text, so Parse
// allocates only the AST and its slices, and a filter-free plan is the
// translated tree itself, with nothing copied by the optimizer.
func TestFrontEndAllocsPerQuery(t *testing.T) {
	const maxParse, maxPlan = 12, 3
	e := &Engine{opts: DefaultOptions()}
	for _, src := range pointLookupQueries() {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		parse := testing.AllocsPerRun(100, func() {
			if _, err := sparql.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		plan := testing.AllocsPerRun(100, func() {
			if _, err := e.plan(q); err != nil {
				t.Fatal(err)
			}
		})
		if parse > maxParse || plan > maxPlan {
			t.Errorf("%q: Parse %v allocations (budget %d), plan %v (budget %d)", src, parse, maxParse, plan, maxPlan)
		}
	}
}

// TestOptimizeLeavesInputUntouched checks Optimize without its former deep
// copy, over the workload's paper-figure queries (E9's Fig. 4 among them)
// and randomQuery plans: under every rewrite the input tree prints as it
// did before, and the filter-pushing pass hands a subtree without a filter
// back as the same pointer.
func TestOptimizeLeavesInputUntouched(t *testing.T) {
	person := workload.PersonIRI(3)
	queries := []string{
		workload.QueryPrimitive(person), workload.QueryConjunction(),
		workload.QueryOptional("Smith"), workload.QueryUnion(person),
		workload.QueryFilter("Smith"), workload.QueryFig4("Smith"),
		workload.QueryAgeRange(20, 40), workload.QueryAll(),
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 300; i++ {
		queries = append(queries, randomQuery(rng))
	}
	for _, src := range queries {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		op, err := algebra.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		before := op.String()
		for _, opts := range []optimize.Options{{PushFilters: true}, {ReorderBGP: true}, optimize.DefaultOptions()} {
			optimize.Optimize(op, opts)
			if after := op.String(); after != before {
				t.Fatalf("Optimize(%+v) changed its input\nbefore: %s\nafter:  %s", opts, before, after)
			}
		}
		algebra.Walk(op, func(sub algebra.Op) {
			if !hasFilter(sub) && optimize.Optimize(sub, optimize.Options{PushFilters: true}) != sub {
				t.Errorf("filter-free subtree %s came back as a copy", sub)
			}
		})
	}
}

func hasFilter(op algebra.Op) bool {
	found := false
	algebra.Walk(op, func(o algebra.Op) {
		if _, ok := o.(*algebra.Filter); ok {
			found = true
		}
	})
	return found
}
