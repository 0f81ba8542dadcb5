package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// hashTerms differ pairwise but share lexical forms: the same Value as IRI,
// blank node and literal, and literals apart only in Lang or Datatype.
var hashTerms = []rdf.Term{
	rdf.NewIRI("a"), rdf.NewLiteral("a"), rdf.NewBlank("a"),
	rdf.NewLangLiteral("a", "en"), rdf.NewLangLiteral("a", "de"),
	rdf.NewTypedLiteral("a", rdf.XSDString), rdf.NewTypedLiteral("a", rdf.XSDInteger),
	rdf.NewIRI("b"), rdf.NewLiteral(""),
}

// randomRows draws n mappings over vars; each variable is left unbound a
// quarter of the time, so shared variables go missing on both join sides.
func randomRows(r *rand.Rand, n int, vars ...string) Solutions {
	out := make(Solutions, n)
	for i := range out {
		b := NewBinding()
		for _, v := range vars {
			if r.Intn(4) > 0 {
				b[v] = hashTerms[r.Intn(len(hashTerms))]
			}
		}
		out[i] = b
	}
	return out
}

// The reference definitions: nested loops over Equal and Compatible.

func refDistinct(s Solutions) Solutions {
	var out Solutions
next:
	for _, b := range s {
		for _, o := range out {
			if b.Equal(o) {
				continue next
			}
		}
		out = append(out, b)
	}
	return out
}

func refJoin(a, b Solutions) Solutions {
	var out Solutions
	for _, x := range a {
		for _, y := range b {
			if x.Compatible(y) {
				out = append(out, x.Merge(y))
			}
		}
	}
	return out
}

// refLeftJoin is every merge, then the mappings of a compatible with no
// mapping of b.
func refLeftJoin(a, b Solutions) Solutions {
	out := refJoin(a, b)
next:
	for _, x := range a {
		for _, y := range b {
			if x.Compatible(y) {
				continue next
			}
		}
		out = append(out, x)
	}
	return out
}

func refLeftJoinFilter(a, b Solutions, expr sparql.Expression) Solutions {
	var out Solutions
	for _, x := range a {
		matched := false
		for _, y := range b {
			if m := x.Merge(y); x.Compatible(y) && Satisfies(expr, m) {
				out = append(out, m)
				matched = true
			}
		}
		if !matched {
			out = append(out, x)
		}
	}
	return out
}

// sameSequence holds got to want row by row: order is part of the contract.
func sameSequence(t *testing.T, what string, got, want Solutions) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// eachHashMode runs f with the real hash and with every hash forced to
// zero, where all rows share one chain and Equal/Compatible decide alone.
func eachHashMode(t *testing.T, f func(t *testing.T)) {
	t.Run("hashed", f)
	t.Run("colliding", func(t *testing.T) {
		hashMask = 0
		defer func() { hashMask = ^uint64(0) }()
		f(t)
	})
}

func TestHashKeyedOperatorsMatchNestedLoops(t *testing.T) {
	cond := &sparql.ExprCmp{Op: sparql.CmpEq,
		Left: &sparql.ExprVar{Name: "z"}, Right: &sparql.ExprTerm{Term: hashTerms[0]}}
	shapes := []struct {
		name   string
		av, bv []string
	}{
		{"shared-xy", []string{"x", "y", "u"}, []string{"x", "y", "z"}},
		{"shared-y", []string{"x", "y"}, []string{"y", "z"}},
		{"disjoint", []string{"x"}, []string{"z"}},
		{"same-vars", []string{"x", "z"}, []string{"x", "z"}},
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			for _, sh := range shapes {
				a := randomRows(r, r.Intn(14), sh.av...)
				b := randomRows(r, r.Intn(14), sh.bv...)
				sameSequence(t, sh.name+" Distinct", Distinct(a), refDistinct(a))
				sameSequence(t, sh.name+" Join", Join(a, b), refJoin(a, b))
				sameSequence(t, sh.name+" LeftJoin", LeftJoinFilter(a, b, nil), refLeftJoin(a, b))
				sameSequence(t, sh.name+" LeftJoinFilter", LeftJoinFilter(a, b, cond), refLeftJoinFilter(a, b, cond))
			}
		}
	})
}

func TestHashKeyedOperatorsTable(t *testing.T) {
	lit := func(v string, val rdf.Term) Binding { return Binding{v: val} }
	cases := []struct {
		name string
		a, b Solutions
	}{
		{"both empty", nil, nil},
		{"empty build side", Solutions{bnd("x", "1")}, nil},
		{"unbound shared var on the probe side",
			Solutions{bnd("y", "7"), bnd("x", "1", "y", "7")},
			Solutions{bnd("x", "1"), bnd("x", "2")}},
		{"unbound shared var between keyed build rows",
			Solutions{bnd("x", "1", "y", "7")},
			Solutions{bnd("x", "1", "z", "a"), bnd("z", "b"), bnd("x", "1", "z", "c"), bnd("x", "2")}},
		{"lang and datatype tell literals apart",
			Solutions{lit("x", rdf.NewLangLiteral("a", "en")), lit("x", rdf.NewLiteral("a")), lit("x", rdf.NewLangLiteral("a", "en"))},
			Solutions{lit("x", rdf.NewLangLiteral("a", "de")), lit("x", rdf.NewTypedLiteral("a", rdf.XSDString)), lit("x", rdf.NewLiteral("a"))}},
		{"IRI and literal with one Value",
			Solutions{lit("x", rdf.NewIRI("a")), lit("x", rdf.NewLiteral("a"))},
			Solutions{lit("x", rdf.NewLiteral("a")), lit("x", rdf.NewBlank("a"))}},
		{"same term under different variables",
			Solutions{bnd("x", "1"), bnd("y", "1"), bnd("x", "1")},
			Solutions{bnd("y", "1"), bnd("x", "1")}},
	}
	eachHashMode(t, func(t *testing.T) {
		for _, c := range cases {
			both := Union(c.a, c.b)
			sameSequence(t, c.name+": Distinct", Distinct(both), refDistinct(both))
			sameSequence(t, c.name+": Join", Join(c.a, c.b), refJoin(c.a, c.b))
			sameSequence(t, c.name+": LeftJoin", LeftJoinFilter(c.a, c.b, nil), refLeftJoin(c.a, c.b))
		}
	})
}

func TestDedupAddEqualsDistinctOfUnion(t *testing.T) {
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			var d Dedup
			var all, shipped Solutions
			for k := r.Intn(6); k >= 0; k-- {
				batch := randomRows(r, r.Intn(10), "x", "y")
				d.Add(batch)
				all = Union(all, batch)
				// A prefix handed out earlier is never written again: the
				// next snapshot starts with the very same rows.
				now := d.Solutions()
				sameSequence(t, "shipped prefix", now[:len(shipped)], shipped)
				if cap(now) != len(now) {
					t.Fatalf("Solutions() leaves %d slots a receiver's append could write into", cap(now)-len(now))
				}
				shipped = now
			}
			sameSequence(t, "Add over batches", d.Solutions(), Distinct(all))
		}
	})
}

func TestSharedVars(t *testing.T) {
	a := Solutions{bnd("x", "1"), bnd("y", "1", "z", "1")}
	b := Solutions{bnd("z", "2", "w", "2"), bnd("y", "2"), bnd("z", "3")}
	if got := SharedVars(a, b); len(got) != 2 || got[0] != "y" || got[1] != "z" {
		t.Errorf("SharedVars = %v, want [y z]", got)
	}
	if got := SharedVars(a, Solutions{bnd("w", "1")}); len(got) != 0 {
		t.Errorf("SharedVars of disjoint sides = %v", got)
	}
}

// TestDistinctDoesNotPrintRows: at the parent every row cost a sort, a
// strings.Builder and a string per term — over 10,000 allocations here.
func TestDistinctDoesNotPrintRows(t *testing.T) {
	rows := make(Solutions, 1000)
	for i := range rows {
		rows[i] = Binding{"s": rdf.NewInteger(int64(i)), "p": term("p"), "o": rdf.NewLiteral("v")}
	}
	if n := testing.AllocsPerRun(5, func() { Distinct(rows) }); n >= 100 {
		t.Errorf("Distinct over 1000 distinct rows allocates %.0f times, want < 100", n)
	}
}

func TestExtendDecidesBeforeAllocating(t *testing.T) {
	x, y := rdf.NewVar("x"), rdf.NewVar("y")
	pat := rdf.Triple{S: x, P: term("p"), O: x}
	loop := rdf.Triple{S: term("n"), P: term("p"), O: term("n")}
	edge := rdf.Triple{S: term("m"), P: term("p"), O: term("q")}
	seed := bnd("k", "0")
	if nb, ok := extend(seed, pat, loop); !ok || !nb.Equal(bnd("k", "0", "x", "n")) {
		t.Errorf("?x p ?x against a self-loop = %v, %v", nb, ok)
	}
	if nb, ok := extend(bnd("x", "m"), rdf.Triple{S: x, P: term("p"), O: y}, edge); !ok || !nb.Equal(bnd("x", "m", "y", "q")) {
		t.Errorf("bound ?x agreeing with the triple = %v, %v", nb, ok)
	}
	if _, ok := extend(bnd("x", "n"), rdf.Triple{S: x, P: term("p"), O: y}, edge); ok {
		t.Error("bound ?x disagreeing with the triple must not extend")
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, ok := extend(seed, pat, edge); ok {
			t.Error("?x p ?x must not match m p q")
		}
	}); n != 0 {
		t.Errorf("an inconsistent match allocates %.0f times, want 0", n)
	}
}

// probes counts the slots a lookup of t walks in d: through t's slot, or
// up to the free slot that ends a miss.
func probes(d *dictIndex, t rdf.Term) (n int, found bool) {
	mask := uint64(len(d.slots) - 1)
	for i := termHash(&t) & mask; ; i = (i + 1) & mask {
		n++
		switch q := d.slots[i]; {
		case q == 0:
			return n, false
		case d.terms[q-1] == t:
			return n, true
		}
	}
}

// TestTermHashSpreadsWorkloadTerms: a dictIndex at most half full walks
// about 1.5 slots per lookup when the hash spreads its terms. Without
// termHash's finalizer, person IRIs walk about 9 slots per find.
func TestTermHashSpreadsWorkloadTerms(t *testing.T) {
	// The shapes of the terms the workload generator mints, written out
	// (internal/workload is above eval), plus IRIs of every length mod 8
	// that differ in their last characters; term(i) is a shape's i-th.
	type shape struct {
		name string
		term func(i int) rdf.Term
	}
	first := []string{"Alice", "Bob", "Carol", "Mallory", "Yolanda"}
	shapes := []shape{
		{"person IRI", func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/people/p%04d", i)) }},
		{"mbox IRI", func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("mailto:p%04d@example.org", i)) }},
		{"name literal", func(i int) rdf.Term {
			return rdf.NewLiteral(fmt.Sprintf("%s Smith%d", first[i%len(first)], i/len(first)))
		}},
	}
	for r := range 8 {
		prefix := "http://example.org/" + strings.Repeat("x", r) + "/n"
		shapes = append(shapes, shape{fmt.Sprintf("IRI of length %d mod 8", (len(prefix)+4)%8),
			func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%s%04d", prefix, i)) }})
	}

	const n = 5000
	for _, sh := range shapes {
		var d dictIndex
		for i := range n {
			d.add(sh.term(i))
		}
		hits, misses := 0, 0
		for i := range n {
			p, ok := probes(&d, sh.term(i))
			if !ok {
				t.Fatalf("%s: term %d not found", sh.name, i)
			}
			hits += p
			if p, ok = probes(&d, sh.term(n+i)); ok {
				t.Fatalf("%s: term %d found, never added", sh.name, n+i)
			}
			misses += p
		}
		hit, miss := float64(hits)/n, float64(misses)/n
		t.Logf("%-22s %d slots: %.2f probes per find, %.2f per miss", sh.name, len(d.slots), hit, miss)
		if hit > 2.0 || miss > 3.0 {
			t.Errorf("%s: %.2f probes per find and %.2f per miss, want at most 2.0 and 3.0", sh.name, hit, miss)
		}
	}

	// hashCols, the fold of a row's dictionary positions, needs no
	// finalizer: consecutive positions fill most of a table's buckets.
	for _, rows := range []int{1000, 8000} {
		for _, width := range []int{1, 2} {
			used := map[uint64]bool{}
			nb := buckets(rows)
			for i := range rows {
				row := []uint32{uint32(i + 1)}
				if width == 2 {
					row = []uint32{uint32(i%50 + 1), uint32(i/50 + 1)}
				}
				used[hashCols(row, []int{0, 1}[:width])&uint64(nb-1)] = true
			}
			share := float64(len(used)) / float64(nb)
			t.Logf("hashCols, %d %d-column rows: %.0f%% of %d buckets used", rows, width, 100*share, nb)
			if share < 0.55 {
				t.Errorf("hashCols: %d %d-column rows use %.0f%% of %d buckets, want at least 55%%", rows, width, 100*share, nb)
			}
		}
	}

	t.Run("colliding", func(t *testing.T) {
		hashMask = 0
		defer func() { hashMask = ^uint64(0) }()
		for _, sh := range shapes {
			for i := range 100 {
				if term := sh.term(i); termHash(&term) != 0 {
					t.Fatalf("%s: termHash(%v) = %#x under a zero hashMask, want 0", sh.name, term, termHash(&term))
				}
			}
		}
	})
}
