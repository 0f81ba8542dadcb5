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

// waveReplies draws k non-empty replies over (?x ?y), as k providers of one
// pattern answer the unit key: 20 rows each, every provider's ?y its own,
// every ?x shared by the providers after the first, each dictionary its
// rows' terms.
func waveReplies(k int) []Table {
	replies := make([]Table, k)
	for i := range replies {
		var cells []rdf.Term
		for j := 0; j < 20; j++ {
			cells = append(cells, rdf.NewIRI(fmt.Sprint("x", j+min(i, 1)*10)), rdf.NewLiteral(fmt.Sprint("y", i, ".", j)))
		}
		replies[i] = TableOf([]string{"x", "y"}, cells)
	}
	return replies
}

// TestWaveMergeAllocatesPerPattern pins the wave's merge to the pattern:
// merging k non-empty replies into an accumulator — the first pattern's,
// keyed on no column, and a later one's, keyed on the rows it joins, then
// joined with them — allocates as many objects for 2 replies as for 8 and
// 32, the dictionary, the cells and the index each sized once, and no more
// than the counts below. Under -race, instrumentation moves a few values to
// the heap, so the counts are held to one another only.
func TestWaveMergeAllocatesPerPattern(t *testing.T) {
	seeds, _ := joinSides(40)
	cases := []struct {
		name  string
		max   float64
		merge func(replies []Table) Table
	}{
		{"first pattern", 7, func(replies []Table) Table {
			m := NewMatches(Table{N: 1}, 0)
			m.AddAll(replies)
			return m.Table()
		}},
		{"later pattern", 16, func(replies []Table) Table {
			m := NewMatches(seeds, 0)
			m.AddAll(replies)
			return m.Join(seeds)
		}},
	}
	for _, c := range cases {
		var counts []float64
		for _, k := range []int{2, 8, 32} {
			replies := waveReplies(k)
			if got := c.merge(replies); got.N == 0 {
				t.Fatalf("%s over %d replies: no rows", c.name, k)
			}
			counts = append(counts, testing.AllocsPerRun(20, func() { c.merge(replies) }))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] || counts[2] > c.max && !raceEnabled {
			t.Errorf("%s allocates %v objects merging 2, 8 and 32 replies, want one count of at most %.0f", c.name, counts, c.max)
		}
	}
}
