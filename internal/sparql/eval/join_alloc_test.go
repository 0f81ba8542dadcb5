package eval

import (
	"fmt"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// joinSides draws a join's operands over n rows a side, each with a
// dictionary of its own: seeds (?x ?u) and rows (?x ?y), every ?x shared
// by one seed and up to two rows, half the seeds without a row.
func joinSides(n int) (seeds, rows Table) {
	var s, r []rdf.Term
	for i := 0; i < n; i++ {
		x := rdf.NewIRI(fmt.Sprint("x", i))
		s = append(s, x, rdf.NewLiteral(fmt.Sprint("u", i)))
		if i%2 == 0 {
			r = append(r, x, rdf.NewLiteral(fmt.Sprint("y", i)), x, rdf.NewLiteral(fmt.Sprint("z", i)))
		}
	}
	return TableOf([]string{"x", "u"}, s), TableOf([]string{"x", "y"}, r)
}

// TestJoinAllocatesPerCall pins the join kernel's allocations to the call:
// Matches.Join, JoinTables and LeftJoinTables allocate as many objects over
// 10 rows a side as over 100 and 1,000 — the remap of the seeds'
// dictionary, the index, the hits, the result's cells and its compacted
// dictionary are each sized once — and no more than the counts below.
func TestJoinAllocatesPerCall(t *testing.T) {
	bound := &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{&sparql.ExprVar{Name: "y"}}}
	cases := []struct {
		name string
		max  float64
		join func(seeds, rows Table, m *Matches) Table
	}{
		{"Matches.Join", 9, func(seeds, _ Table, m *Matches) Table { return m.Join(seeds) }},
		{"JoinTables", 15, func(seeds, rows Table, _ *Matches) Table { return JoinTables(seeds, rows) }},
		{"LeftJoinTables", 15, func(seeds, rows Table, _ *Matches) Table { return LeftJoinTables(seeds, rows, nil) }},
		{"LeftJoinTables under a condition", 15, func(seeds, rows Table, _ *Matches) Table { return LeftJoinTables(seeds, rows, bound) }},
	}
	for _, c := range cases {
		var counts []float64
		for _, n := range []int{10, 100, 1000} {
			seeds, rows := joinSides(n)
			m := NewMatches(KeyTable(seeds, []string{"x"}), 0)
			m.Add(rows.Slice(0, rows.N/2))
			m.Add(rows.Slice(rows.N/2, -1))
			if got := c.join(seeds, rows, m); got.N == 0 {
				t.Fatalf("%s over %d rows: no rows", c.name, n)
			}
			counts = append(counts, testing.AllocsPerRun(20, func() { c.join(seeds, rows, m) }))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || counts[2] > c.max {
			t.Errorf("%s allocates %v objects over 10, 100 and 1,000 rows a side, want one count of at most %.0f", c.name, counts, c.max)
		}
	}
}
