package eval

import (
	"slices"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// Table is the form a solution multiset takes in the distributed engine:
// one variable schema and N rows of len(Vars) terms each, row-major in one
// slice. A cell holding the zero rdf.Term is unbound — OPTIONAL and UNION
// leave variables unbound — and a row stands for the mapping of its bound
// cells. A sub-query ships its keys as a Table and gets its matches back as
// one, bound in every cell; a query's solutions stay one from the first
// reply to its result, and only the result's rows become Bindings. A table
// without variables still has rows: the unit key is "no variables, one row".
//
// A table travels dictionary-encoded (Dict, DESIGN §5): the names of the
// variables its rows bind, once; each distinct bound term, once; and a 1-,
// 2- or 4-byte index per cell. SizeBytes charges exactly what
// Solutions.SizeBytes charges for the same rows, so a unit or whole-row key
// costs what the seeds it replaces cost. Dict is counted once — by a
// storage node's keyed match from its graph's term IDs, by KeyTable, and by
// Counted where a table leaves its site — and carried from there: an
// operator whose result holds exactly its input's terms (Distinct, Reduced,
// Order) passes the input's on, the others leave theirs to be counted
// where the table is sized. A table is built once — by KeyTable, a table
// operator, Matches.Table or a storage node's keyed match — and never
// written afterwards.
type Table struct {
	Vars  []string
	Terms []rdf.Term
	N     int
	Dict  Dict
}

// Row returns the terms of row i, aliasing the table.
func (t Table) Row(i int) []rdf.Term {
	w := len(t.Vars)
	return t.Terms[i*w : (i+1)*w : (i+1)*w]
}

// SizeBytes is the wire size of the table under the one table rule: a
// store.match reply carries one Table per unit it answers, each charged
// this. A table that carries no Dict is counted here.
func (t Table) SizeBytes() int {
	d := t.Dict
	if d.Len == 0 {
		d = dictOf(t.Terms)
	}
	return tableBytes(t.Vars, t.N, func(i, c int) rdf.Term { return t.Terms[i*len(t.Vars)+c] }, d)
}

// Counted returns t carrying its dictionary, counted unless it carries one:
// what a table is made before it leaves its site, so that every charge of
// it on the way is arithmetic.
func (t Table) Counted() Table {
	if t.Dict.Len == 0 {
		t.Dict = dictOf(t.Terms)
	}
	return t
}

// Binds reports whether some row binds v.
func (t Table) Binds(v string) bool {
	c := slices.Index(t.Vars, v)
	for i := 0; c >= 0 && i < t.N; i++ {
		if !t.Row(i)[c].IsZero() {
			return true
		}
	}
	return false
}

// RowEstimate is the wire size one reply row over vars is expected to
// cost when it is charged as t is: per cell, what a cell of t costs under
// the table rule — its index and its share of t's dictionary. A reply to
// the keys t repeats its terms as t does; charged with every term distinct
// instead, a row looks as large as a mapping's and keys whose terms repeat
// look cheap beside it. t must have terms.
func (t Table) RowEstimate(vars []string) int {
	d := t.Counted().Dict
	return len(vars) * (len(t.Terms)*d.Width() + d.Bytes) / len(t.Terms)
}

// KeyTable returns the distinct projection of seeds onto vars, a subset of
// their schema, first occurrences in seed order. Without variables the
// projection is the unit key.
func KeyTable(seeds Table, vars []string) Table {
	if len(vars) == 0 {
		return Table{N: 1}
	}
	keys := distinctRows(seeds, vars)
	keys.Dict = dictOf(keys.Terms) // keys are sized before they are sent
	return keys
}

// distinctRows is KeyTable's projection, its dictionary not counted.
func distinctRows(seeds Table, vars []string) Table {
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

// compatible is sameCols where an unbound cell agrees with any term.
func compatible(a, b []rdf.Term, ac, bc []int) bool {
	for k, c := range ac {
		if s, t := a[c], b[bc[k]]; s != t && !s.IsZero() && !t.IsZero() {
			return false
		}
	}
	return true
}

// unbound reports whether row leaves one of the columns cols unbound.
func unbound(row []rdf.Term, cols []int) bool {
	for _, c := range cols {
		if row[c].IsZero() {
			return true
		}
	}
	return false
}

// MatchSet is the wire form of the matches accumulated for one pattern:
// distinct rows over one schema, in arrival order, each aliasing the reply
// table that carried it. Dict is the rows' dictionary when Matches.Counted
// counted it, and like Table it charges what Solutions.SizeBytes charges
// for the same rows. It is append-only: Matches writes only past the
// prefixes it has handed out.
type MatchSet struct {
	Vars []string
	Rows [][]rdf.Term
	Dict Dict
}

// SizeBytes is the wire size of the set under the one table rule; a set
// that carries no Dict is counted here.
func (s MatchSet) SizeBytes() int {
	d := s.Dict
	if d.Len == 0 {
		d = dictOf(s.Table().Terms)
	}
	return tableBytes(s.Vars, len(s.Rows), func(i, c int) rdf.Term { return s.Rows[i][c] }, d)
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
// or a join needs it. A reply binds every cell; only a table JoinTables or
// LeftJoinTables indexes can leave a key column unbound, and such a row is
// kept off the chains, in loose, the way joinIndex keeps one.
//
// Set hands the rows out where they lie, and a MatchSet is an operand as it
// is: its Join, LeftJoin and Union index and read its rows in place, keyed on
// the variables they share with the other operand as JoinTables keys them,
// through the one join kernel, and its Filter copies only the rows it keeps —
// each the sequence and the size of the same operator over Table().
type Matches struct {
	vars     []string     // the replies' schema
	rows     [][]rdf.Term // distinct rows in arrival order
	counted  *countedRows // what Counted has counted; nil before its first call
	sizeHint int
	keys     []string         // the variables the keys bound, a subset of vars
	cols     []int            // their columns in vars; every column when keys is empty
	head     map[uint64]int32 // key hash → last row added with it (1-based)
	next     []int32          // row → previous row with the same hash
	loose    []int32          // rows leaving a key column unbound, in arrival order
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

// Set returns the rows so far, and no schema before the first row arrives,
// as Table returns. Add only appends past what was returned earlier, so a
// set already handed to the fabric stays as it was.
func (m *Matches) Set() MatchSet {
	return MatchSet{Vars: m.vars, Rows: m.rows[:len(m.rows):len(m.rows)]}
}

// Counted returns Set carrying its dictionary: the count so far goes on
// over the rows added since, so a set handed out at every hop of a chain
// counts each row once.
func (m *Matches) Counted() MatchSet {
	if m.counted == nil {
		m.counted = &countedRows{}
	}
	c := m.counted
	from := len(c.flat)
	for _, row := range m.rows[from/max(len(m.vars), 1):] {
		c.flat = append(c.flat, row...)
	}
	c.dict.count(c.flat, from)
	s := m.Set()
	s.Dict = c.dict.Dict
	return s
}

// countedRows is the rows Matches.Counted has counted, laid end to end,
// and their dictionary.
type countedRows struct {
	flat []rdf.Term
	dict dictCounter
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

func (m *Matches) push(row []rdf.Term) { m.rows = append(m.rows, row) }

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
		if unbound(row, m.cols) {
			m.loose = append(m.loose, int32(i))
			continue
		}
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
// key, or a pattern mentioning every variable bound so far). An operator
// that only reads the rows takes them where they lie instead, from Set.
func (m *Matches) Table() Table { return m.Set().Table() }

// Table copies the rows into one table.
func (s MatchSet) Table() Table {
	if len(s.Rows) == 0 {
		return Table{}
	}
	terms := make([]rdf.Term, 0, len(s.Rows)*len(s.Vars))
	for _, row := range s.Rows {
		terms = append(terms, row...)
	}
	return Table{Vars: s.Vars, Terms: terms, N: len(s.Rows), Dict: s.Dict}
}

// row is Table.Row over s, for the operators that read rows through one.
func (s MatchSet) row(i int) []rdf.Term { return s.Rows[i] }

// Join extends every seed row by the rows whose key columns it agrees with
// — every row when no variable is shared — seeds in their order, a seed's
// rows in arrival order. The key variables must be exactly those the seeds
// and the rows share. The result's schema is the seeds' variables followed
// by the rows' others, and its rows are copied into one arena sized before
// it is filled.
func (m *Matches) Join(seeds Table) Table { return m.join(seeds, nil, false) }

// JoinTables returns a ⋈ b in Join's sequence: each row of a extended by
// every row of b that agrees with it wherever both bind a shared variable,
// in b's order. b is indexed as Matches indexes its replies, on the shared
// variables, and its rows are not de-duplicated.
func JoinTables(a, b Table) Table { return over(a, b.Vars, b.views()).join(a, nil, false) }

// LeftJoinTables returns LeftJoin(a, b, expr) in LeftJoinFilter's sequence:
// JoinTables' extensions that satisfy expr (all of them when it is nil), a
// row of a no extension is kept for left with b's other variables unbound —
// after every extension when expr is nil, in its own place otherwise.
func LeftJoinTables(a, b Table, expr sparql.Expression) Table {
	return over(a, b.Vars, b.views()).join(a, expr, true)
}

// Join returns JoinTables(a, s.Table()) without the copy: s's rows are
// indexed and read where they lie.
func (s MatchSet) Join(a Table) Table { return over(a, s.Vars, s.Rows).join(a, nil, false) }

// LeftJoin returns LeftJoinTables(a, s.Table(), expr) without the copy.
func (s MatchSet) LeftJoin(a Table, expr sparql.Expression) Table {
	return over(a, s.Vars, s.Rows).join(a, expr, true)
}

// views returns t's rows as slices aliasing it, the form Matches holds.
func (t Table) views() [][]rdf.Term {
	rows := make([][]rdf.Term, t.N)
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// over indexes rows over vars on the variables they share with a — JoinTables'
// choice of key variables, whichever form the rows come in.
func over(a Table, vars []string, rows [][]rdf.Term) *Matches {
	m := &Matches{vars: vars, rows: rows}
	for _, v := range vars {
		if slices.Contains(a.Vars, v) {
			m.keys = append(m.keys, v)
		}
	}
	return m
}

// join is the one Table join kernel, behind both Joins, JoinTables and both
// left joins: pass one lists every seed's rows, pass two copies the
// extensions out, dropping those failing expr; with left, a seed left
// without an extension is kept as LeftJoinTables says.
func (m *Matches) join(seeds Table, expr sparql.Expression, left bool) Table {
	if seeds.N == 0 || m.Len() == 0 && !left {
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
	hits, ends, probe := m.hits(seeds)
	size := len(hits)
	if left {
		size += seeds.N
	}
	out := Table{Vars: vars, Terms: make([]rdf.Term, 0, size*len(vars))}
	keep := rowFilter(vars, expr)
	pad := func(x []rdf.Term) {
		out.Terms = append(out.Terms, x...)
		for range add {
			out.Terms = append(out.Terms, rdf.Term{})
		}
		out.N++
	}
	var unmatched []int
	from := 0
	for i, end := range ends {
		x, matched := seeds.Row(i), false
		for _, r := range hits[from:end] {
			at, row := len(out.Terms), m.rows[r]
			out.Terms = append(out.Terms, x...)
			for _, c := range add {
				out.Terms = append(out.Terms, row[c])
			}
			for k, c := range probe {
				if x[c].IsZero() {
					out.Terms[at+c] = row[m.cols[k]]
				}
			}
			if keep != nil && !keep(out.Terms[at:]) {
				out.Terms = out.Terms[:at]
				continue
			}
			out.N++
			matched = true
		}
		from = end
		switch {
		case !left || matched:
		case expr == nil:
			unmatched = append(unmatched, i)
		default:
			pad(x)
		}
	}
	for _, i := range unmatched {
		pad(seeds.Row(i))
	}
	return out
}

// hits lists the rows compatible with each seed, in arrival order: seed i's
// are hits[ends[i-1]:ends[i]]. probe is the seed column of each key column.
func (m *Matches) hits(seeds Table) (hits []int32, ends, probe []int) {
	var cols []int // no key columns: every row matches every seed
	if len(m.keys) > 0 {
		if m.head == nil {
			m.index(0)
		}
		cols = m.cols
	}
	probe = make([]int, len(cols))
	for k, c := range cols {
		probe[k] = slices.Index(seeds.Vars, m.vars[c])
	}
	hits = make([]int32, 0, max(seeds.N, len(m.rows)))
	ends = make([]int, seeds.N)
	for i := range ends {
		x, from := seeds.Row(i), len(hits)
		if len(cols) == 0 || unbound(x, probe) { // any row may match: scan them all
			for r, row := range m.rows {
				if compatible(x, row, probe, cols) {
					hits = append(hits, int32(r))
				}
			}
		} else {
			h := hashInit
			for _, c := range probe { // as hash folds a row
				h = hashTerm(h, x[c])
			}
			for c := m.head[h&hashMask]; c != 0; c = m.next[c-1] {
				if sameCols(x, m.rows[c-1], probe, cols) {
					hits = append(hits, c-1)
				}
			}
			slices.Reverse(hits[from:]) // chains run newest first
			for _, r := range m.loose {
				if compatible(x, m.rows[r], probe, cols) {
					hits = append(hits, r)
				}
			}
			if len(m.loose) > 0 {
				slices.Sort(hits[from:])
			}
		}
		ends[i] = len(hits)
	}
	return hits, ends, probe
}
