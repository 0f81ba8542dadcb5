package eval

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// fullRows draws n mappings binding every one of vars.
func fullRows(r *rand.Rand, n int, vars ...string) Solutions {
	out := make(Solutions, n)
	for i := range out {
		b := NewBinding()
		for _, v := range vars {
			b[v] = hashTerms[r.Intn(len(hashTerms))]
		}
		out[i] = b
	}
	return out
}

// tableOf lays rows out flat over vars; a variable a mapping leaves unbound
// is an unbound cell.
func tableOf(rows Solutions, vars ...string) Table {
	t := Table{Vars: vars, N: len(rows)}
	for _, b := range rows {
		for _, v := range vars {
			t.Terms = append(t.Terms, b[v])
		}
	}
	return t
}

// rowsOf writes a table's rows as mappings, the form the reference
// operators take: an unbound cell is a variable the mapping leaves out.
func rowsOf(t Table) Solutions {
	if t.N == 0 {
		return nil
	}
	out := make(Solutions, t.N)
	for i := range out {
		b := NewBinding()
		for c, v := range t.Vars {
			if term := t.Row(i)[c]; !term.IsZero() {
				b[v] = term
			}
		}
		out[i] = b
	}
	return out
}

// TestTableChargesLikeSolutions: the flat wire forms cost what the row maps
// they replace cost, byte for byte — every unit-seed number in the
// repository rests on it.
func TestTableChargesLikeSolutions(t *testing.T) {
	if got := (Table{N: 1}).SizeBytes(); got != 5 || got != (Solutions{NewBinding()}).SizeBytes() {
		t.Errorf("unit key costs %d bytes, want 5", got)
	}
	if got := (Table{}).SizeBytes(); got != Solutions(nil).SizeBytes() {
		t.Errorf("empty table costs %d bytes, want %d", got, Solutions(nil).SizeBytes())
	}
	if got := NewMatches(Table{}, 0).Set().SizeBytes(); got != Solutions(nil).SizeBytes() {
		t.Errorf("empty match set costs %d bytes, want %d", got, Solutions(nil).SizeBytes())
	}
	schemas := [][]string{{}, {"x"}, {"person", "n"}, {"a", "bb", "ccc", "dddd"}}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		vars := schemas[r.Intn(len(schemas))]
		rows := Distinct(fullRows(r, r.Intn(20), vars...))
		tab := tableOf(rows, vars...)
		if got, want := tab.SizeBytes(), rows.SizeBytes(); got != want {
			t.Fatalf("seed %d: table over %v costs %d bytes, the same rows as Solutions %d", seed, vars, got, want)
		}
		m := NewMatches(Table{}, 0)
		m.Add(tab)
		m.Add(tab) // the second copy is dropped, and indexes the first
		if got, want := m.Set().SizeBytes(), rows.SizeBytes(); got != want {
			t.Fatalf("seed %d: match set over %v costs %d bytes, the same rows as Solutions %d", seed, vars, got, want)
		}
	}
}

func TestKeyTableIsTheDistinctProjection(t *testing.T) {
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			seeds := fullRows(r, r.Intn(30), "x", "y", "z")
			for _, vars := range [][]string{{"x"}, {"z", "x"}, {"x", "y", "z"}} {
				keys := KeyTable(tableOf(seeds, "x", "y", "z"), vars)
				want := refDistinct(Project(seeds, vars))
				if keys.N != len(want) {
					t.Fatalf("seed %d: %d keys over %v, want %d", seed, keys.N, vars, len(want))
				}
				for i, b := range want {
					for c, v := range vars {
						if keys.Row(i)[c] != b[v] {
							t.Fatalf("seed %d: key %d over %v is %v, want %v", seed, i, vars, keys.Row(i), b)
						}
					}
				}
			}
		}
	})
	if keys := KeyTable(tableOf(Solutions{bnd("x", "1"), bnd("x", "2")}, "x"), nil); keys.N != 1 || len(keys.Vars) != 0 {
		t.Errorf("projection onto no variables = %+v, want the unit key", keys)
	}
}

// TestMatchesJoinEqualsJoinOfDistinct: accumulating reply tables and
// joining them with the seed table is Join(seeds, Distinct(replies)) — seed-major,
// a seed's rows in arrival order — whatever the keys share with the schema,
// and a set handed out earlier is never written again.
func TestMatchesJoinEqualsJoinOfDistinct(t *testing.T) {
	shapes := []struct {
		name               string
		seedVars, keyVars  []string
		replyVars          []string
		repliesAreTheirOwn bool
	}{
		{"one shared", []string{"x", "u"}, []string{"x"}, []string{"x", "n"}, false},
		{"two shared, schema order differs", []string{"x", "y", "u"}, []string{"y", "x"}, []string{"x", "n", "y"}, false},
		{"none shared", []string{"u"}, nil, []string{"x", "n"}, false},
		{"rows are keys", []string{"x"}, []string{"x"}, []string{"x", "n"}, true},
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			for _, sh := range shapes {
				seeds := Distinct(fullRows(r, 1+r.Intn(10), sh.seedVars...))
				seedRows := tableOf(seeds, sh.seedVars...)
				m := NewMatches(KeyTable(seedRows, sh.keyVars), r.Intn(3)*8)
				var all, shipped Solutions
				for k := r.Intn(5); k >= 0; k-- {
					reply := Distinct(fullRows(r, r.Intn(8), sh.replyVars...))
					m.Add(tableOf(reply, sh.replyVars...))
					all = Union(all, reply)
					now := m.Set()
					if cap(now.Rows) != len(now.Rows) {
						t.Fatalf("Set() leaves %d slots a receiver's append could write into", cap(now.Rows)-len(now.Rows))
					}
					for i, b := range shipped {
						for c, v := range now.Vars {
							if now.Rows[i][c] != b[v] {
								t.Fatalf("%s: row %d of a set handed out earlier changed", sh.name, i)
							}
						}
					}
					shipped = rowsOf(m.Table())
				}
				distinct := Distinct(all)
				if m.Len() != len(distinct) || m.Set().SizeBytes() != distinct.SizeBytes() {
					t.Fatalf("%s: holds %d rows / %d bytes, want %d / %d", sh.name,
						m.Len(), m.Set().SizeBytes(), len(distinct), distinct.SizeBytes())
				}
				sameSequence(t, sh.name+" Table", rowsOf(m.Table()), distinct)
				if !sh.repliesAreTheirOwn {
					sameSequence(t, sh.name+" Join", rowsOf(m.Join(seedRows)), refJoin(seeds, distinct))
				}
			}
		}
	})
}

// TestMatchesZeroWidthRows: a fully ground pattern answers with rows that
// bind nothing; several providers holding the triple still make one row.
func TestMatchesZeroWidthRows(t *testing.T) {
	m := NewMatches(Table{N: 1}, 0)
	m.Add(Table{N: 1})
	m.Add(Table{})
	m.Add(Table{N: 1})
	if m.Len() != 1 {
		t.Fatalf("holds %d rows, want 1", m.Len())
	}
	sameSequence(t, "ground pattern", rowsOf(m.Table()), Solutions{NewBinding()})
	seeds := Solutions{bnd("u", "1"), bnd("u", "2")}
	sameSequence(t, "ground pattern under seeds", rowsOf(m.Join(tableOf(seeds, "u"))), seeds)
}

// TestProjectSharesRowsItKeepsWhole: a mapping that binds only projected
// variables is returned as it is, one that binds more is copied, and the
// shared one is never written.
func TestProjectSharesRowsItKeepsWhole(t *testing.T) {
	whole := bnd("x", "1", "y", "2")
	before := whole.Clone()
	for _, vars := range [][]string{{"x", "y"}, {"y", "x", "z"}, {"x", "x", "y"}} {
		got := whole.Project(vars)
		got2 := Project(Solutions{whole}, vars)[0]
		if len(got) != 2 || !got.Equal(whole) || !got2.Equal(whole) {
			t.Errorf("Project(%v) = %v, want %v", vars, got, whole)
		}
		if n := testing.AllocsPerRun(10, func() { whole.Project(vars) }); n != 0 {
			t.Errorf("Project(%v) of a row binding nothing else allocates %.0f times, want 0", vars, n)
		}
	}
	if got := whole.Project([]string{"x", "x"}); !got.Equal(bnd("x", "1")) {
		t.Errorf("Project([x x]) = %v, want {x}", got)
	}
	narrow := whole.Project([]string{"y"})
	narrow["y"] = rdf.NewLiteral("written")
	if !whole.Equal(before) {
		t.Errorf("writing a narrowed copy changed its source: %v", whole)
	}
	// A modifier stack over shared rows leaves them as they were.
	rows := Solutions{whole, bnd("x", "1", "y", "2"), bnd("x", "3", "y", "4")}
	out := Slice(Distinct(Project(rows, []string{"x", "y"})), 0, 2)
	if len(out) != 2 || !whole.Equal(before) {
		t.Errorf("modifiers over shared rows: %v, source %v", out, whole)
	}
}

// sameTable holds got to want as tables: schema, row sequence and size. An
// empty result keeps its schema, so the schema is compared whatever N is.
func sameTable(t *testing.T, what string, got, want Table) {
	t.Helper()
	if !slices.Equal(got.Vars, want.Vars) || got.N != want.N || !slices.Equal(got.Terms, want.Terms) {
		t.Fatalf("%s: %d rows over %v\n %v\nwant %d over %v\n %v", what, got.N, got.Vars, got.Terms, want.N, want.Vars, want.Terms)
	}
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: costs %d bytes, want %d", what, got.SizeBytes(), want.SizeBytes())
	}
}

// heldAsOneReply is an accumulator holding t's rows as they come, the way it
// holds a first reply. One without rows has no schema either, so its set
// copies out as Table{} and is read in place as one.
func heldAsOneReply(t *testing.T, tab Table) *Matches {
	t.Helper()
	m := NewMatches(Table{}, 0)
	m.Add(tab)
	if tab.N == 0 && (m.Set().Vars != nil || m.Table().N != 0 || m.Table().Vars != nil) {
		t.Fatalf("a match set of no rows is %+v and copies out as %+v, want no schema and Table{}", m.Set(), m.Table())
	}
	return m
}

// flatOp is the operator a flatShape applies.
type flatOp int

const (
	flatJoin flatOp = iota
	flatLeftJoin
	flatUnion
	flatFilter // b's rows under cond; a is not read
)

// flatShape is one case of FuzzFlatJoin: a's schema, b's, the operator
// with its condition, and whether a cell may be unbound.
type flatShape struct {
	a, b    []string
	op      flatOp
	cond    sparql.Expression
	unbound bool
}

// flatShapes are FuzzFlatJoin's cases. Joins of bound rows: the unit table
// against a reply; no shared variable (a cross product); every column
// shared, in another order; the one column a pattern repeating its variable
// (?x p ?x) answers with, against seeds binding it and another; a reply
// ending in a GRAPH variable the seeds bind too. Then, with unbound cells: a
// join on two variables either side may leave unbound; OPTIONAL without a
// condition; OPTIONAL under bound() of a left variable; OPTIONAL under a
// condition over both sides, !bound() in it; a union of two schemas. Last,
// a filter over bound rows, which keeps some and drops others.
var flatShapes = []flatShape{
	{a: nil, b: []string{"x", "y"}},
	{a: []string{"u", "v"}, b: []string{"x", "y"}},
	{a: []string{"x", "y"}, b: []string{"y", "x"}},
	{a: []string{"x", "y"}, b: []string{"x"}},
	{a: []string{"x", "g"}, b: []string{"x", "n", "g"}},
	{a: []string{"x", "y"}, b: []string{"y", "x", "z"}, unbound: true},
	{a: []string{"x", "y"}, b: []string{"y", "z"}, op: flatLeftJoin, unbound: true},
	{a: []string{"x", "y"}, b: []string{"x", "z"}, op: flatLeftJoin, unbound: true,
		cond: &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{&sparql.ExprVar{Name: "y"}}}},
	{a: []string{"x", "y"}, b: []string{"y", "z"}, op: flatLeftJoin, unbound: true,
		cond: &sparql.ExprOr{
			Left:  &sparql.ExprNot{X: &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{&sparql.ExprVar{Name: "x"}}}},
			Right: &sparql.ExprCmp{Op: sparql.CmpNeq, Left: &sparql.ExprVar{Name: "z"}, Right: &sparql.ExprVar{Name: "x"}}}},
	{a: []string{"x", "y"}, b: []string{"y", "z"}, op: flatUnion, unbound: true},
	{b: []string{"x", "y"}, op: flatFilter,
		cond: &sparql.ExprCmp{Op: sparql.CmpNeq, Left: &sparql.ExprVar{Name: "x"}, Right: &sparql.ExprVar{Name: "y"}}},
}

// decodeFlatJoin reads a shape and the two tables' rows off fuzz input;
// exhausted input reads as zeros. Terms come from hashTerms, so rows repeat
// and one term can sit under two variables; where the shape allows it, one
// more index reads as an unbound cell.
func decodeFlatJoin(data []byte) (sh flatShape, a, b Table) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	sh = flatShapes[next()%len(flatShapes)]
	cells := len(hashTerms)
	if sh.unbound {
		cells++
	}
	fill := func(vars []string, n int) Table {
		t := Table{Vars: vars, N: n, Terms: make([]rdf.Term, n*len(vars))}
		for i := range t.Terms {
			if k := next() % cells; k < len(hashTerms) {
				t.Terms[i] = hashTerms[k]
			}
		}
		return t
	}
	an := 1 // the unit table has one row
	if len(sh.a) > 0 {
		an = next() % 8
	}
	a = fill(sh.a, an)
	return sh, a, fill(sh.b, next()%10)
}

// checkFlatJoin holds the Table operator of a shape to its Solutions
// counterpart and to the nested-loop reference on the same rows written as
// mappings, row for row, and its result's SizeBytes to theirs. With b's rows
// held by an accumulator, the operator reading them where they lie must
// return the table the operator over their copy returns. A join of bound
// rows also holds Matches.Join(a) over b's rows added in two replies —
// across which the accumulator de-duplicates — against the join with
// Distinct(b), and the in-place join over those rows against the join with
// their copy.
func checkFlatJoin(t *testing.T, sh flatShape, a, b Table) {
	t.Helper()
	as, bs := rowsOf(a), rowsOf(b)
	held := heldAsOneReply(t, b)
	var got Table
	var want Solutions
	switch sh.op {
	case flatJoin:
		got, want = JoinTables(a, b), refJoin(as, bs)
		sameSequence(t, "Join", Join(as, bs), want)
		sameTable(t, "MatchSet.Join", held.Set().Join(a), JoinTables(a, held.Table()))
	case flatLeftJoin:
		got, want = LeftJoinTables(a, b, sh.cond), refLeftJoin(as, bs)
		if sh.cond != nil {
			want = refLeftJoinFilter(as, bs, sh.cond)
		}
		sameSequence(t, "LeftJoinFilter", LeftJoinFilter(as, bs, sh.cond), want)
		sameTable(t, "MatchSet.LeftJoin", held.Set().LeftJoin(a, sh.cond), LeftJoinTables(a, held.Table(), sh.cond))
	case flatUnion:
		got, want = UnionTables(a, b), Union(as, bs)
		sameTable(t, "MatchSet.Union", held.Set().Union(a), UnionTables(a, held.Table()))
	case flatFilter:
		got, want = b.Filter(sh.cond), FilterSolutions(bs, sh.cond)
		sameTable(t, "MatchSet.Filter", held.Set().Filter(sh.cond), held.Table().Filter(sh.cond))
	}
	sameSequence(t, "table operator", rowsOf(got), want)
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("the table costs %d bytes, the same rows as Solutions %d", got.SizeBytes(), want.SizeBytes())
	}
	if got.N > 0 && len(got.Terms) != got.N*len(got.Vars) {
		t.Fatalf("%d terms for %d rows over %v", len(got.Terms), got.N, got.Vars)
	}
	for i, v := range got.Vars {
		if slices.Contains(got.Vars[i+1:], v) {
			t.Fatalf("schema %v names ?%s twice", got.Vars, v)
		}
	}
	if sh.op != flatJoin || sh.unbound {
		return // a reply binds every cell
	}
	var shared []string
	for _, v := range b.Vars {
		if slices.Contains(a.Vars, v) {
			shared = append(shared, v)
		}
	}
	// A reply never repeats a row itself; the second may repeat the first's.
	m := NewMatches(Table{Vars: shared}, 0)
	half := b.N / 2
	m.Add(tableOf(refDistinct(bs[:half]), b.Vars...))
	m.Add(tableOf(refDistinct(bs[half:]), b.Vars...))
	sameSequence(t, "Matches.Join", rowsOf(m.Join(a)), refJoin(as, refDistinct(bs)))
	sameTable(t, "MatchSet.Join over two replies", m.Set().Join(a), JoinTables(a, m.Table()))
}

// FuzzFlatJoin: the binary Table operators return their Solutions
// counterparts' sequences, and so do their in-place forms over a MatchSet.
// The corpus under testdata/fuzz/FuzzFlatJoin holds one input per shape of
// flatShapes, one whose b is a single row eight times over (JoinTables keeps
// every copy), and one whose b comes as two replies the accumulator merges,
// so the in-place join reads rows out of two tables.
func FuzzFlatJoin(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sh, a, b := decodeFlatJoin(data)
		checkFlatJoin(t, sh, a, b)
		hashMask = 0 // every lookup collides: the comparisons alone decide
		defer func() { hashMask = ^uint64(0) }()
		checkFlatJoin(t, sh, a, b)
	})
}

// refOrder is ORDER BY as it was before the keys were evaluated once per
// row: a stable sort evaluating both rows' keys at every comparison.
func refOrder(s Solutions, conds []sparql.OrderCond) Solutions {
	out := append(Solutions(nil), s...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, c := range conds {
			vi, erri := EvalExpr(c.Expr, out[i])
			vj, errj := EvalExpr(c.Expr, out[j])
			var cmp int
			switch {
			case erri != nil && errj != nil:
			case erri != nil:
				cmp = -1
			case errj != nil:
				cmp = 1
			default:
				cmp = rdf.Compare(vi.Term, vj.Term)
			}
			if c.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return out
}

// TestTableOperatorsMatchSolutionOperators: every operator the engine
// applies above a BGP returns, over tables with unbound cells, the sequence
// its Solutions counterpart returns over the same rows written as mappings,
// and a table that costs what those mappings cost. The in-place forms over
// a MatchSet — the join, left join and union with it as the right operand,
// and the filter copying only the rows it keeps — return the table their
// Table operator returns over its copy.
func TestTableOperatorsMatchSolutionOperators(t *testing.T) {
	x, y, z := &sparql.ExprVar{Name: "x"}, &sparql.ExprVar{Name: "y"}, &sparql.ExprVar{Name: "z"}
	bound := func(v *sparql.ExprVar) sparql.Expression {
		return &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{v}}
	}
	filters := []sparql.Expression{
		bound(y),
		&sparql.ExprNot{X: bound(z)},
		&sparql.ExprCmp{Op: sparql.CmpEq, Left: x, Right: &sparql.ExprTerm{Term: hashTerms[0]}},
	}
	orders := [][]sparql.OrderCond{
		{{Expr: x}},
		{{Expr: y, Desc: true}, {Expr: x}},
		// an error on every row: all tie, and the input order stands
		{{Expr: &sparql.ExprArith{Op: sparql.ArithAdd, Left: x, Right: y}}},
	}
	shapes := [][2][]string{
		{{"x", "y", "u"}, {"x", "y", "z"}},
		{{"x", "y"}, {"y", "z"}},
		{{"x"}, {"z"}},
		{{"x", "z"}, {"x", "z"}},
	}
	check := func(t *testing.T, what string, got Table, want Solutions) {
		t.Helper()
		sameSequence(t, what, rowsOf(got), want)
		if got.SizeBytes() != want.SizeBytes() {
			t.Fatalf("%s: the table costs %d bytes, the same rows as Solutions %d", what, got.SizeBytes(), want.SizeBytes())
		}
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			var rows Solutions // some rows twice in a row, for Distinct and Reduced
			for _, b := range randomRows(r, r.Intn(14), "x", "y", "z") {
				rows = append(rows, b)
				if r.Intn(3) == 0 {
					rows = append(rows, b)
				}
			}
			tab := tableOf(rows, "x", "y", "z")
			held := heldAsOneReply(t, tab)
			for _, f := range filters {
				check(t, "Filter "+f.String(), tab.Filter(f), FilterSolutions(rows, f))
				sameTable(t, "MatchSet.Filter "+f.String(), held.Set().Filter(f), held.Table().Filter(f))
			}
			check(t, "Project", tab.Project([]string{"z", "x", "w"}), Project(rows, []string{"z", "x", "w"}))
			check(t, "Distinct", tab.Distinct(), Distinct(rows))
			check(t, "Reduced", tab.Reduced(), Reduced(rows))
			for _, c := range orders {
				sameSequence(t, "Order", Order(rows, c), refOrder(rows, c))
				check(t, "Table Order", tab.Order(c), Order(rows, c))
			}
			offset, limit := r.Intn(len(rows)+2)-1, r.Intn(len(rows)+2)-1
			check(t, "Slice", tab.Slice(offset, limit), Slice(rows, offset, limit))
			for _, sh := range shapes {
				a, b := randomRows(r, r.Intn(10), sh[0]...), randomRows(r, r.Intn(10), sh[1]...)
				at, bt := tableOf(a, sh[0]...), tableOf(b, sh[1]...)
				check(t, "JoinTables", JoinTables(at, bt), Join(a, b))
				check(t, "LeftJoinTables", LeftJoinTables(at, bt, nil), LeftJoinFilter(a, b, nil))
				for _, f := range filters {
					check(t, "LeftJoinTables "+f.String(), LeftJoinTables(at, bt, f), LeftJoinFilter(a, b, f))
				}
				check(t, "UnionTables", UnionTables(at, bt), Union(a, b))
				// The right operand where an accumulator holds it.
				held := heldAsOneReply(t, bt).Set()
				sameTable(t, "MatchSet.Join", held.Join(at), JoinTables(at, held.Table()))
				for _, f := range append(filters, nil) {
					sameTable(t, "MatchSet.LeftJoin", held.LeftJoin(at, f), LeftJoinTables(at, held.Table(), f))
				}
				sameTable(t, "MatchSet.Union", held.Union(at), UnionTables(at, held.Table()))
			}
		}
	})
}
