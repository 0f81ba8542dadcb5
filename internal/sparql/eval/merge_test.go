package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adhocshare/internal/rdf"
)

// sameRaw holds got to want field by field: schema, dictionary order, cells
// and row count.
func sameRaw(t *testing.T, what string, got, want Table) {
	t.Helper()
	if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.Dict, want.Dict) || !slices.Equal(got.Cells, want.Cells) || got.N != want.N {
		t.Fatalf("%s: %d rows over %v, dict %v, cells %v\nwant %d over %v, dict %v, cells %v",
			what, got.N, got.Vars, got.Dict, got.Cells, want.N, want.Vars, want.Dict, want.Cells)
	}
}

// drawReplies draws up to five replies over vars, distinct rows each as a
// provider's are, one in four empty, each laid out under layout(i) —
// dictionaries in order of first use, reversed, padded with entries no cell
// uses, or disjoint from every other reply's.
func drawReplies(r *rand.Rand, layout func(i int) dictLayout, vars ...string) []Table {
	replies := make([]Table, r.Intn(6))
	for i := range replies {
		n := r.Intn(8)
		if r.Intn(4) == 0 {
			n = 0
		}
		replies[i] = relaid(tableOf(Distinct(fullRows(r, n, vars...)), vars...), layout(i))
	}
	return replies
}

// TestAddAllEqualsAddOneByOne: merging a round's replies at once, the
// storage sized for all of them, leaves the accumulator as adding them one
// by one does — the same schema, dictionary order, cells and row count —
// whatever the dictionaries' layouts, with empty replies among them, with
// a single reply, with the accumulator keyed on some columns or none, and
// with every hash colliding.
func TestAddAllEqualsAddOneByOne(t *testing.T) {
	layouts := []struct {
		name string
		of   func(r *rand.Rand) func(i int) dictLayout
	}{
		{"in order", func(*rand.Rand) func(int) dictLayout { return func(int) dictLayout { return inOrder } }},
		{"reversed", func(*rand.Rand) func(int) dictLayout { return func(int) dictLayout { return reversed } }},
		{"padded", func(*rand.Rand) func(int) dictLayout { return func(int) dictLayout { return padded } }},
		{"disjoint", func(*rand.Rand) func(int) dictLayout {
			return func(i int) dictLayout { return []dictLayout{inOrder, asTwins}[i%2] }
		}},
		{"mixed", func(r *rand.Rand) func(int) dictLayout {
			return func(int) dictLayout { return dictLayout(r.Intn(int(dictLayouts))) }
		}},
	}
	keyings := []struct {
		name string
		keys Table
	}{
		{"unit key", Table{N: 1}},
		{"keyed on x", Table{Vars: []string{"x"}}},
		{"keyed on the rows joined", Table{Vars: []string{"u", "y", "x"}}},
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 60; seed++ {
			r := rand.New(rand.NewSource(seed))
			for _, l := range layouts {
				for _, k := range keyings {
					replies := drawReplies(r, l.of(r), "x", "y")
					if seed%5 == 0 {
						replies = replies[:min(1, len(replies))] // a single reply, or none
					}
					one := NewMatches(k.keys, r.Intn(3)*8)
					for _, reply := range replies {
						one.Add(reply)
					}
					all := NewMatches(k.keys, 0)
					all.AddAll(replies)
					sameRaw(t, l.name+", "+k.name, all.Table(), one.Table())
					// The merged accumulator goes on accumulating as Add's.
					more := relaid(tableOf(Distinct(fullRows(r, r.Intn(8), "x", "y")), "x", "y"), padded)
					one.Add(more)
					all.Add(more)
					sameRaw(t, l.name+", "+k.name+", one reply more", all.Table(), one.Table())
				}
			}
		}
	})
}

// TestAddAllZeroWidthReplies: a fully ground pattern's replies bind
// nothing; merged at once as added one by one, they make one row.
func TestAddAllZeroWidthReplies(t *testing.T) {
	replies := []Table{{N: 1}, {}, {N: 1}, {N: 1}}
	one := NewMatches(Table{N: 1}, 0)
	for _, reply := range replies {
		one.Add(reply)
	}
	all := NewMatches(Table{N: 1}, 0)
	all.AddAll(replies)
	sameRaw(t, "ground pattern", all.Table(), one.Table())
	if all.Len() != 1 {
		t.Fatalf("holds %d rows, want 1", all.Len())
	}
}

// TestKeyedAccumulatorJoinEqualsJoinTables: an accumulator keyed on the
// rows it joins is that join's index. Its Join(rows) is JoinTables(rows,
// acc.Table()) — the same schema, dictionary, cells and row count — with
// no column shared (a cross product), with empty rows, with a GRAPH
// variable the rows bind too, with the shared columns in another order, and
// with every hash colliding.
func TestKeyedAccumulatorJoinEqualsJoinTables(t *testing.T) {
	shapes := []struct {
		name        string
		rows, reply []string
		empty       bool
	}{
		{"one shared", []string{"x", "u"}, []string{"x", "y"}, false},
		{"no shared column", []string{"u", "v"}, []string{"x", "y"}, false},
		{"empty rows", []string{"x", "u"}, []string{"x", "y"}, true},
		{"GRAPH variable", []string{"x", "g"}, []string{"x", "n", "g"}, false},
		{"two shared, other order", []string{"y", "u", "x"}, []string{"x", "y"}, false},
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			for _, sh := range shapes {
				n := 1 + r.Intn(10)
				if sh.empty {
					n = 0
				}
				rows := relaid(tableOf(Distinct(fullRows(r, n, sh.rows...)), sh.rows...), dictLayout(r.Intn(int(dictLayouts))))
				acc := NewMatches(rows, 0)
				acc.AddAll(drawReplies(r, func(int) dictLayout { return dictLayout(r.Intn(int(dictLayouts))) }, sh.reply...))
				want := JoinTables(rows, acc.Table())
				sameRaw(t, sh.name, acc.Join(rows), want)
				sameSequence(t, sh.name+" against the reference", rowsOf(acc.Join(rows)), refJoin(rowsOf(rows), rowsOf(acc.Table())))
			}
		}
	})
}

// addFindThenPlace is dictIndex.add as it was before one probe served the
// lookup and the insertion: a find, then a second probe placing a miss.
func addFindThenPlace(d *dictIndex, t rdf.Term) uint32 {
	if p := d.find(t); p != 0 {
		return p
	}
	if 2*(len(d.terms)+1) > len(d.slots) {
		d.grow()
	}
	d.terms = append(d.terms, t)
	p := uint32(len(d.terms))
	d.place(p)
	return p
}

// TestOneProbeAddPlacesAsFindThenPlace: adding a term with one probe gives
// every term the position, and the set the very slots, that a find and
// then a placing probe give — terms repeating, the set growing, starting
// empty or from a held dictionary, and with every hash colliding, where
// each probe walks the whole cluster.
func TestOneProbeAddPlacesAsFindThenPlace(t *testing.T) {
	pool := append(append([]rdf.Term(nil), padTerms...), workloadTerms(40)...)
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			var held []rdf.Term
			if seed%2 == 1 {
				held = slices.Clone(pool[:r.Intn(len(pool)/2)])
			}
			got, want := dictIndex{terms: slices.Clone(held)}, dictIndex{terms: slices.Clone(held)}
			for i := 0; i < 3*len(pool); i++ {
				term := pool[r.Intn(len(pool))]
				if p, q := got.add(term), addFindThenPlace(&want, term); p != q {
					t.Fatalf("seed %d: add(%v) = %d, find then place %d", seed, term, p, q)
				}
			}
			if !slices.Equal(got.terms, want.terms) || !slices.Equal(got.slots, want.slots) {
				t.Fatalf("seed %d: one probe leaves terms %v, slots %v\nwant %v, %v", seed, got.terms, got.slots, want.terms, want.slots)
			}
		}
	})
}

// workloadTerms are n IRIs minted from one prefix, as the workload
// generator mints people.
func workloadTerms(n int) []rdf.Term {
	out := make([]rdf.Term, n)
	for i := range out {
		out[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/people/p%04d", i))
	}
	return out
}
