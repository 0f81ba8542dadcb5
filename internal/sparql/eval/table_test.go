package eval

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/testutil"
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
	var cells []rdf.Term
	for _, b := range rows {
		for _, v := range vars {
			cells = append(cells, b[v])
		}
	}
	t := TableOf(vars, cells)
	t.N = len(rows)
	return t
}

// cellsOf reads a table's cells as terms, row-major.
func cellsOf(t Table) []rdf.Term {
	var out []rdf.Term
	for i := 0; i < t.N; i++ {
		for c := range t.Vars {
			out = append(out, t.Term(i, c))
		}
	}
	return out
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
			if term := t.Term(i, c); !term.IsZero() {
				b[v] = term
			}
		}
		out[i] = b
	}
	return out
}

// encoded holds a table's charge to the reference encoder, which reads it
// through Term only.
func encoded(t *testing.T, what string, tab Table) {
	t.Helper()
	if err := testutil.CheckWire(tab); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// dictLayout is a way to lay a table's dictionary out, its rows unchanged
// but for asTwins: as TableOf does, in order of first use; reversed, so
// that a term sits at another position than in an operand laid out in
// order; padded before and after with entries no cell uses, among them
// terms the other operand uses; or with every term replaced by its twin,
// which no other operand holds — disjoint dictionaries.
type dictLayout int

const (
	inOrder dictLayout = iota
	reversed
	padded
	asTwins
	dictLayouts
)

// twinTerms are hashTerms' twins, position for position: the same kinds,
// other values.
var twinTerms = func() []rdf.Term {
	out := make([]rdf.Term, len(hashTerms))
	for i, t := range hashTerms {
		t.Value += "'"
		out[i] = t
	}
	return out
}()

// padTerms pad a dictionary: hashTerms and twinTerms a table does not use
// itself, and two of no table.
var padTerms = append(append([]rdf.Term{rdf.NewIRI("pad"), rdf.NewLiteral("pad")}, hashTerms...), twinTerms...)

// relaid returns t under layout l.
func relaid(t Table, l dictLayout) Table {
	out := t
	switch l {
	case reversed:
		out.Dict = slices.Clone(t.Dict)
		slices.Reverse(out.Dict)
		out.Cells = make([]uint32, len(t.Cells))
		for i, k := range t.Cells {
			if k != 0 {
				out.Cells[i] = uint32(len(t.Dict)) + 1 - k
			}
		}
	case padded:
		var before, after []rdf.Term
		for i, p := range padTerms {
			if slices.Contains(t.Dict, p) {
				continue
			}
			if i%2 == 0 {
				before = append(before, p)
			} else {
				after = append(after, p)
			}
		}
		out.Dict = append(append(before, t.Dict...), after...)
		out.Cells = make([]uint32, len(t.Cells))
		for i, k := range t.Cells {
			if k != 0 {
				out.Cells[i] = k + uint32(len(before))
			}
		}
	case asTwins:
		out.Dict = make([]rdf.Term, len(t.Dict))
		for i, term := range t.Dict {
			out.Dict[i] = twinTerms[slices.Index(hashTerms, term)]
		}
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
	if got := NewMatches(Table{}, 0).Table().SizeBytes(); got != Solutions(nil).SizeBytes() {
		t.Errorf("an empty accumulator costs %d bytes, want %d", got, Solutions(nil).SizeBytes())
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
		if got, want := m.Table().SizeBytes(), rows.SizeBytes(); got != want {
			t.Fatalf("seed %d: the accumulated rows over %v cost %d bytes, the same rows as Solutions %d", seed, vars, got, want)
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
						if keys.Term(i, c) != b[v] {
							t.Fatalf("seed %d: key %d over %v is %v, want %v", seed, i, vars, rowsOf(keys)[i], b)
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
				var earlier Table
				for k := r.Intn(5); k >= 0; k-- {
					reply := Distinct(fullRows(r, r.Intn(8), sh.replyVars...))
					m.Add(tableOf(reply, sh.replyVars...))
					all = Union(all, reply)
					now := m.Table()
					if cap(now.Cells) != len(now.Cells) || cap(now.Dict) != len(now.Dict) {
						t.Fatalf("Table() leaves slots a receiver's append could write into")
					}
					sameSequence(t, sh.name+" a table handed out earlier", rowsOf(earlier), shipped)
					earlier, shipped = now, rowsOf(now)
				}
				distinct := Distinct(all)
				if m.Len() != len(distinct) || m.Table().SizeBytes() != distinct.SizeBytes() {
					t.Fatalf("%s: holds %d rows / %d bytes, want %d / %d", sh.name,
						m.Len(), m.Table().SizeBytes(), len(distinct), distinct.SizeBytes())
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
	if !slices.Equal(got.Vars, want.Vars) || got.N != want.N || !slices.Equal(cellsOf(got), cellsOf(want)) {
		t.Fatalf("%s: %d rows over %v\n %v\nwant %d over %v\n %v", what, got.N, got.Vars, cellsOf(got), want.N, want.Vars, cellsOf(want))
	}
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: costs %d bytes, want %d", what, got.SizeBytes(), want.SizeBytes())
	}
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

// decodeFlatJoin reads a shape, the two tables' rows and the layout of
// their dictionaries off fuzz input; exhausted input reads as zeros. Terms
// come from hashTerms, so rows repeat and one term can sit under two
// variables; where the shape allows it, one more index reads as an unbound
// cell. The layout byte comes last, so that an input written before it
// existed reads as both dictionaries in order of first use: a's is laid
// out in order, or padded when b's is reversed; b's is laid out so.
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
		terms := make([]rdf.Term, n*len(vars))
		for i := range terms {
			if k := next() % cells; k < len(hashTerms) {
				terms[i] = hashTerms[k]
			}
		}
		t := TableOf(vars, terms)
		t.N = n
		return t
	}
	an := 1 // the unit table has one row
	if len(sh.a) > 0 {
		an = next() % 8
	}
	a = fill(sh.a, an)
	b = fill(sh.b, next()%10)
	l := dictLayout(next()) % dictLayouts
	if l == reversed {
		a = relaid(a, padded)
	}
	return sh, a, relaid(b, l)
}

// checkFlatJoin holds the Table operator of a shape to its Solutions
// counterpart and to the nested-loop reference on the same rows written as
// mappings, row for row, and its result's SizeBytes to theirs and to the
// reference encoder's. A join of bound rows also holds Matches.Join(a) over
// b's rows added in two replies — across which the accumulator
// de-duplicates, remapping the second into the first's dictionary —
// against the join with Distinct(b), and JoinTables over the accumulated
// table against it.
func checkFlatJoin(t *testing.T, sh flatShape, a, b Table) {
	t.Helper()
	as, bs := rowsOf(a), rowsOf(b)
	var got Table
	var want Solutions
	switch sh.op {
	case flatJoin:
		got, want = JoinTables(a, b), refJoin(as, bs)
		sameSequence(t, "Join", Join(as, bs), want)
	case flatLeftJoin:
		got, want = LeftJoinTables(a, b, sh.cond), refLeftJoin(as, bs)
		if sh.cond != nil {
			want = refLeftJoinFilter(as, bs, sh.cond)
		}
		sameSequence(t, "LeftJoinFilter", LeftJoinFilter(as, bs, sh.cond), want)
	case flatUnion:
		got, want = UnionTables(a, b), Union(as, bs)
	case flatFilter:
		got, want = b.Filter(sh.cond), FilterSolutions(bs, sh.cond)
	}
	sameSequence(t, "table operator", rowsOf(got), want)
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("the table costs %d bytes, the same rows as Solutions %d", got.SizeBytes(), want.SizeBytes())
	}
	encoded(t, "the table operator's result", got)
	if len(got.Cells) != got.N*len(got.Vars) {
		t.Fatalf("%d cells for %d rows over %v", len(got.Cells), got.N, got.Vars)
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
	m.Add(relaid(tableOf(refDistinct(bs[half:]), b.Vars...), reversed))
	sameSequence(t, "Matches.Join", rowsOf(m.Join(a)), refJoin(as, refDistinct(bs)))
	encoded(t, "Matches.Join", m.Join(a))
	sameTable(t, "JoinTables over two replies", JoinTables(a, m.Table()), m.Join(a))
}

// FuzzFlatJoin: the binary Table operators return their Solutions
// counterparts' sequences, whatever the layout of their operands'
// dictionaries. The corpus under testdata/fuzz/FuzzFlatJoin holds one input
// per shape of flatShapes, one whose b is a single row eight times over
// (JoinTables keeps every copy), one whose b comes as two replies the
// accumulator merges, and one per dictionary layout: a term at other
// positions in a and b, disjoint dictionaries, and entries no cell uses.
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
// and a table that costs what those mappings cost and what the reference
// encoder writes — whatever the layout of its operands' dictionaries: in
// order of first use, a term at other positions in the two operands,
// disjoint dictionaries, entries no cell uses.
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
		encoded(t, what, got)
	}
	eachHashMode(t, func(t *testing.T) {
		for seed := int64(0); seed < 80; seed++ {
			r := rand.New(rand.NewSource(seed))
			l := dictLayout(seed) % dictLayouts
			var rows Solutions // some rows twice in a row, for Distinct and Reduced
			for _, b := range randomRows(r, r.Intn(14), "x", "y", "z") {
				rows = append(rows, b)
				if r.Intn(3) == 0 {
					rows = append(rows, b)
				}
			}
			tab := relaid(tableOf(rows, "x", "y", "z"), l)
			rows = rowsOf(tab)
			for _, f := range filters {
				check(t, "Filter "+f.String(), tab.Filter(f), FilterSolutions(rows, f))
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
			for _, keys := range [][]string{{"x"}, {"z", "y"}} {
				want := refDistinct(Project(rows, keys))
				check(t, "KeyTable", KeyTable(tab, keys), want)
			}
			for _, sh := range shapes {
				at := tableOf(randomRows(r, r.Intn(10), sh[0]...), sh[0]...)
				bt := relaid(tableOf(randomRows(r, r.Intn(10), sh[1]...), sh[1]...), l)
				if l == reversed {
					at = relaid(at, padded)
				}
				a, b := rowsOf(at), rowsOf(bt)
				check(t, "JoinTables", JoinTables(at, bt), Join(a, b))
				check(t, "LeftJoinTables", LeftJoinTables(at, bt, nil), LeftJoinFilter(a, b, nil))
				for _, f := range filters {
					check(t, "LeftJoinTables "+f.String(), LeftJoinTables(at, bt, f), LeftJoinFilter(a, b, f))
				}
				check(t, "UnionTables", UnionTables(at, bt), Union(a, b))
				check(t, "UnionTables, b first", UnionTables(bt, at), Union(b, a))
				// Operators over operators' results: their dictionaries are
				// the remapped and compacted ones.
				j := JoinTables(at, bt)
				check(t, "Distinct of a join", j.Distinct(), Distinct(Join(a, b)))
				check(t, "join of a union", JoinTables(UnionTables(at, bt), bt), Join(Union(a, b), b))
			}
		}
	})
}
