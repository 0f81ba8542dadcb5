package eval

import (
	"slices"

	"adhocshare/internal/rdf"
)

// Table is the flat form solutions take inside a basic graph pattern: one
// variable schema and N rows of len(Vars) terms each, row-major in one
// slice, every cell bound. A sub-query ships its keys as a Table and gets
// its matches back as one, and a BGP's partial solutions stay one from the
// first reply to the BGP's result. Above the BGP a row is a Binding: an
// OPTIONAL or a UNION leaves variables unbound, which a Table cannot say. A
// table without variables still has rows: the unit key is "no variables,
// one row".
//
// SizeBytes charges exactly what Solutions.SizeBytes charges for the same
// rows, so a unit or whole-row key costs what the seeds it replaces cost.
//
//adhoclint:wireimmutable built once — by KeyTable, a join, Matches.Table or a storage node's keyed match — never written afterwards
type Table struct {
	Vars  []string
	Terms []rdf.Term
	N     int
}

// Row returns the terms of row i, aliasing the table.
func (t Table) Row(i int) []rdf.Term {
	w := len(t.Vars)
	return t.Terms[i*w : (i+1)*w : (i+1)*w]
}

// SizeBytes is the wire size of the rows: a store.match reply carries one
// Table per unit it answers, each charged this.
func (t Table) SizeBytes() int {
	n := 4 + t.N*rowOverhead(t.Vars)
	for _, term := range t.Terms {
		n += term.SizeBytes()
	}
	return n
}

// rowOverhead is what one row costs beyond its terms: the row header and
// the variable names, which Binding.SizeBytes charges per row.
func rowOverhead(vars []string) int {
	n := 2
	for _, v := range vars {
		n += len(v)
	}
	return n
}

// RowEstimate is the wire size of one row over vars whose terms are as
// large as t's are on average — what a reply row to the keys t is expected
// to cost. t must have terms.
func (t Table) RowEstimate(vars []string) int {
	terms := 0
	for _, term := range t.Terms {
		terms += term.SizeBytes()
	}
	return rowOverhead(vars) + len(vars)*terms/len(t.Terms)
}

// KeyTable returns the distinct projection of seeds onto vars, a subset of
// their schema, first occurrences in seed order. Without variables the
// projection is the unit key.
func KeyTable(seeds Table, vars []string) Table {
	if len(vars) == 0 {
		return Table{N: 1}
	}
	cols := make([]int, len(vars))
	for k, v := range vars {
		cols[k] = slices.Index(seeds.Vars, v)
	}
	// Pass one finds the distinct rows, pass two copies them into a table
	// of exactly that size.
	head := make(map[uint64]int32, seeds.N) // key hash → last distinct seed with it (1-based)
	next := make([]int32, seeds.N)          // seed → previous distinct seed with the same hash
	distinct := make([]int32, 0, seeds.N)
	for i := 0; i < seeds.N; i++ {
		row := seeds.Row(i)
		h := hashInit
		for _, c := range cols {
			h = hashTerm(h, row[c])
		}
		h &= hashMask
		first := head[h]
		c := first
		for c != 0 && !sameCols(row, seeds.Row(int(c-1)), cols, cols) {
			c = next[c-1]
		}
		if c != 0 {
			continue
		}
		next[i] = first
		head[h] = int32(i + 1)
		distinct = append(distinct, int32(i))
	}
	terms := make([]rdf.Term, 0, len(distinct)*len(vars))
	for _, i := range distinct {
		row := seeds.Row(int(i))
		for _, c := range cols {
			terms = append(terms, row[c])
		}
	}
	return Table{Vars: vars, Terms: terms, N: len(distinct)}
}

// sameCols reports whether a's columns ac hold b's columns bc, pairwise.
func sameCols(a, b []rdf.Term, ac, bc []int) bool {
	for k, c := range ac {
		if a[c] != b[bc[k]] {
			return false
		}
	}
	return true
}

// MatchSet is the wire form of the matches accumulated for one pattern:
// distinct rows over one schema, in arrival order, each aliasing the reply
// table that carried it. TermBytes is the running sum of the rows' term
// sizes, so SizeBytes does not walk them; like Table it charges what
// Solutions.SizeBytes charges for the same rows.
//
//adhoclint:wireimmutable append-only: Matches writes only past the prefixes it has handed out
type MatchSet struct {
	Vars      []string
	Rows      [][]rdf.Term
	TermBytes int
}

// SizeBytes is the wire size of the set.
func (s MatchSet) SizeBytes() int {
	return 4 + len(s.Rows)*rowOverhead(s.Vars) + s.TermBytes
}

// Matches accumulates the reply tables of one pattern's targets into a
// MatchSet and joins it with the partial solutions the keys were projected
// from. A row equal to one already held is dropped on arrival: the query
// dataset is the set union of the providers' triples (Sect. IV-A), and for
// one pattern a row determines the matched triple. A reply never repeats a
// row itself — a provider's graph is a set and keys are distinct — so the
// first non-empty one is held as it comes. One hash index serves the
// de-duplication and the join; it is keyed on the key columns, on the whole
// row when there are none, and is not built before a second non-empty reply
// or a join needs it.
type Matches struct {
	vars      []string     // the replies' schema
	rows      [][]rdf.Term // distinct rows in arrival order
	termBytes int
	sizeHint  int
	keys      []string         // the variables the keys bound, a subset of vars
	cols      []int            // their columns in vars; every column when keys is empty
	head      map[uint64]int32 // key hash → last row added with it (1-based)
	next      []int32          // row → previous row with the same hash
}

// NewMatches returns an empty accumulator for the replies of a pattern whose
// join columns are the variables of keys — whether a target was sent those
// keys or the unit key in their place, its reply joins and de-duplicates on
// the same columns. sizeHint is the number of rows to make room for when
// the caller knows a bound (the location table's frequencies give one for
// the unit key), zero otherwise.
func NewMatches(keys Table, sizeHint int) *Matches {
	return &Matches{keys: keys.Vars, sizeHint: sizeHint}
}

// Len is the number of distinct rows held.
func (m *Matches) Len() int { return len(m.rows) }

// Set returns the rows so far. Add only appends past what was returned
// earlier, so a set already handed to the fabric stays as it was.
func (m *Matches) Set() MatchSet {
	return MatchSet{Vars: m.vars, Rows: m.rows[:len(m.rows):len(m.rows)], TermBytes: m.termBytes}
}

// Add appends the rows of t that are not yet held.
func (m *Matches) Add(t Table) {
	if t.N == 0 {
		return
	}
	if m.rows == nil {
		m.vars = t.Vars
		m.rows = make([][]rdf.Term, 0, max(m.sizeHint, t.N))
		for i := 0; i < t.N; i++ {
			m.push(t.Row(i))
		}
		return
	}
	if m.head == nil {
		m.index(t.N)
	}
	for i := 0; i < t.N; i++ {
		m.insert(t.Row(i))
	}
}

func (m *Matches) push(row []rdf.Term) {
	m.rows = append(m.rows, row)
	for _, term := range row {
		m.termBytes += term.SizeBytes()
	}
}

// index builds the hash index over the rows held so far, leaving room for
// extra more.
func (m *Matches) index(extra int) {
	for c, v := range m.vars {
		if len(m.keys) == 0 || slices.Contains(m.keys, v) {
			m.cols = append(m.cols, c)
		}
	}
	room := max(m.sizeHint, len(m.rows)+extra)
	m.head = make(map[uint64]int32, room)
	m.next = make([]int32, len(m.rows), room)
	for i, row := range m.rows {
		h := m.hash(row)
		m.next[i] = m.head[h]
		m.head[h] = int32(i + 1)
	}
}

// hash folds the indexed columns of a row.
func (m *Matches) hash(row []rdf.Term) uint64 {
	h := hashInit
	for _, c := range m.cols {
		h = hashTerm(h, row[c])
	}
	return h & hashMask
}

func (m *Matches) insert(row []rdf.Term) {
	h := m.hash(row)
	first := m.head[h]
	for c := first; c != 0; c = m.next[c-1] {
		if slices.Equal(row, m.rows[c-1]) {
			return
		}
	}
	m.push(row)
	m.next = append(m.next, first)
	m.head[h] = int32(len(m.rows))
}

// Table returns every row held, in arrival order, copied into one table:
// the result when the keys were the partial solutions themselves (the unit
// key, or a pattern mentioning every variable bound so far).
func (m *Matches) Table() Table {
	if m.Len() == 0 {
		return Table{}
	}
	terms := make([]rdf.Term, 0, len(m.rows)*len(m.vars))
	for _, row := range m.rows {
		terms = append(terms, row...)
	}
	return Table{Vars: m.vars, Terms: terms, N: len(m.rows)}
}

// Join extends every seed row by the rows whose key columns it agrees with
// — every row when no variable is shared — seeds in their order, a seed's
// rows in arrival order. The key variables must be exactly those the seeds
// and the rows share. The result's schema is the seeds' variables followed
// by the rows' others, and its rows are copied into one arena sized before
// it is filled.
func (m *Matches) Join(seeds Table) Table {
	if m.Len() == 0 || seeds.N == 0 {
		return Table{}
	}
	vars := slices.Clip(seeds.Vars)
	var add []int // the columns a row adds to its seed
	for c, v := range m.vars {
		if !slices.Contains(m.keys, v) {
			vars = append(vars, v)
			add = append(add, c)
		}
	}
	out := Table{Vars: vars}
	extend := func(x, row []rdf.Term) {
		out.Terms = append(out.Terms, x...)
		for _, c := range add {
			out.Terms = append(out.Terms, row[c])
		}
	}
	if len(m.keys) == 0 {
		out.N = seeds.N * len(m.rows)
		out.Terms = make([]rdf.Term, 0, out.N*len(vars))
		for i := 0; i < seeds.N; i++ {
			for _, row := range m.rows {
				extend(seeds.Row(i), row)
			}
		}
		return out
	}
	if m.head == nil {
		m.index(0)
	}
	probe := make([]int, len(m.cols)) // the seed column of each key column
	for k, c := range m.cols {
		probe[k] = slices.Index(seeds.Vars, m.vars[c])
	}
	// Pass one lists every seed's rows, pass two copies them out.
	hits := make([]int32, 0, max(seeds.N, len(m.rows)))
	ends := make([]int, seeds.N)
	for i := range ends {
		x := seeds.Row(i)
		h := hashInit
		for _, c := range probe { // as hash folds a row
			h = hashTerm(h, x[c])
		}
		from := len(hits)
		for c := m.head[h&hashMask]; c != 0; c = m.next[c-1] {
			if sameCols(x, m.rows[c-1], probe, m.cols) {
				hits = append(hits, c-1)
			}
		}
		slices.Reverse(hits[from:]) // chains run newest first
		ends[i] = len(hits)
	}
	out.N = len(hits)
	out.Terms = make([]rdf.Term, 0, out.N*len(vars))
	from := 0
	for i, end := range ends {
		for _, r := range hits[from:end] {
			extend(seeds.Row(i), m.rows[r])
		}
		from = end
	}
	return out
}

// JoinTables returns a ⋈ b for tables whose every cell is bound: each row of
// a extended by every row of b that agrees with it on the variables the two
// share — every row of b when they share none — a's rows outer, b's inner in
// b's order, which is Join's sequence over the same rows written as
// mappings. b is indexed the way Matches indexes its replies, on the shared
// variables, and its rows are not de-duplicated.
func JoinTables(a, b Table) Table {
	m := &Matches{vars: b.Vars, rows: make([][]rdf.Term, b.N)}
	for i := range m.rows {
		m.rows[i] = b.Row(i)
	}
	for _, v := range b.Vars {
		if slices.Contains(a.Vars, v) {
			m.keys = append(m.keys, v)
		}
	}
	return m.Join(a)
}
