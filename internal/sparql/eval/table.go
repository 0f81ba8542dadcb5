package eval

import (
	"slices"

	"adhocshare/internal/rdf"
)

// Table is the flat form solutions take on the sub-query wire: one
// variable schema and N rows of len(Vars) terms each, row-major in one
// slice, every cell bound. A sub-query ships its keys as a Table and gets
// its matches back as one; everywhere else a row is a Binding. A table
// without variables still has rows: the unit key is "no variables, one
// row".
//
// SizeBytes charges exactly what Solutions.SizeBytes charges for the same
// rows, so a unit or whole-row key costs what the seeds it replaces cost.
//
//adhoclint:wireimmutable built once by KeyTable or a storage node's keyed match, never written afterwards
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

// SizeBytes implements simnet.Payload: a store.match reply is a bare Table.
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

// KeyTable returns the distinct projection of seeds onto vars, first
// occurrences in seed order. Every seed must bind every variable of vars
// (within one BGP all partial solutions bind the same variables). Without
// variables the projection is the unit key.
func KeyTable(seeds Solutions, vars []string) Table {
	if len(vars) == 0 {
		return Table{N: 1}
	}
	// Pass one finds the distinct rows, pass two copies them into a table
	// of exactly that size.
	head := make(map[uint64]int32, len(seeds)) // key hash → last distinct seed with it (1-based)
	next := make([]int32, len(seeds))          // seed → previous distinct seed with the same hash
	distinct := make([]int32, 0, len(seeds))
	for i, b := range seeds {
		h, _ := keyHash(b, vars)
		first := head[h]
		c := first
		for c != 0 && !sameKey(b, seeds[c-1], vars) {
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
		for _, v := range vars {
			terms = append(terms, seeds[i][v])
		}
	}
	return Table{Vars: vars, Terms: terms, N: len(distinct)}
}

func sameKey(a, b Binding, vars []string) bool {
	for _, v := range vars {
		if a[v] != b[v] {
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

// Solutions returns every row held as a mapping, in arrival order: the
// result when the keys were the partial solutions themselves (the unit
// key, or a pattern mentioning every variable bound so far).
func (m *Matches) Solutions() Solutions {
	if m.Len() == 0 {
		return nil
	}
	out := make(Solutions, len(m.rows))
	for i, row := range m.rows {
		b := make(Binding, len(row))
		for c, v := range m.vars {
			b[v] = row[c]
		}
		out[i] = b
	}
	return out
}

// Join extends every seed by the rows whose key columns it agrees with —
// every row when no variable is shared — seeds in their order, a seed's
// rows in arrival order.
func (m *Matches) Join(seeds Solutions) Solutions {
	if m.Len() == 0 || len(seeds) == 0 {
		return nil
	}
	if len(m.keys) == 0 {
		out := make(Solutions, 0, len(seeds)*m.Len())
		for _, x := range seeds {
			for _, row := range m.rows {
				out = append(out, m.extend(x, row))
			}
		}
		return out
	}
	if m.head == nil {
		m.index(0)
	}
	out := make(Solutions, 0, len(seeds))
	var hits []int32
	for _, x := range seeds {
		h := hashInit
		for _, c := range m.cols { // as hash folds a row
			h = hashTerm(h, x[m.vars[c]])
		}
		hits = hits[:0]
		for c := m.head[h&hashMask]; c != 0; c = m.next[c-1] {
			if m.agrees(x, m.rows[c-1]) {
				hits = append(hits, c-1)
			}
		}
		for i := len(hits) - 1; i >= 0; i-- { // chains run newest first
			out = append(out, m.extend(x, m.rows[hits[i]]))
		}
	}
	return out
}

// agrees reports whether x binds the key variables to row's key columns.
func (m *Matches) agrees(x Binding, row []rdf.Term) bool {
	for _, c := range m.cols {
		if x[m.vars[c]] != row[c] {
			return false
		}
	}
	return true
}

// extend returns x extended by the columns of row it does not bind yet.
func (m *Matches) extend(x Binding, row []rdf.Term) Binding {
	b := make(Binding, len(x)+len(row)-len(m.keys))
	for k, v := range x {
		b[k] = v
	}
	for c, v := range m.vars {
		b[v] = row[c]
	}
	return b
}
