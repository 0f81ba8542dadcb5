package eval

import (
	"slices"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// Table is the form a solution multiset takes in the distributed engine,
// and the form the wire charges (DESIGN §5): one variable schema, a
// dictionary of terms, and N rows of len(Vars) cells each, row-major in one
// slice. A cell k > 0 holds the term Dict[k-1]; the cell 0 is unbound —
// OPTIONAL and UNION leave variables unbound — and a row stands for the
// mapping of its bound cells. No term is in a dictionary twice, so two
// cells over one dictionary hold the same term exactly when they are equal:
// rows hash and compare as integers.
//
// A dictionary may hold terms no cell uses. A unary operator — Filter,
// Project, Slice, Distinct, Reduced, Order, KeyTable — keeps its input's,
// and SizeBytes charges the entries some cell uses. An operator combining
// two tables remaps one side's dictionary into the other's, one lookup per
// distinct term, not per cell; a join's result then keeps the terms its
// rows use. A storage node's reply holds the terms it uses, copied out of
// its graph's.
//
// A sub-query ships its keys as a Table and gets its matches back as one,
// bound in every cell; a query's solutions stay one from the first reply
// to its result, and only the result's rows become Bindings. A table
// without variables still has rows: the unit key is "no variables, one
// row". A table is built once — by TableOf, KeyTable, a table operator, a
// Matches or a storage node's keyed match — and never written afterwards,
// so tables share dictionaries and cells freely.
type Table struct {
	Vars  []string
	Dict  []rdf.Term
	Cells []uint32
	N     int
}

// TableOf lays row-major terms out as a table over vars, the zero Term
// being an unbound cell; the dictionary holds the terms in order of first
// use.
func TableOf(vars []string, cells []rdf.Term) Table {
	t := Table{Vars: vars, Cells: make([]uint32, len(cells))}
	if len(vars) > 0 {
		t.N = len(cells) / len(vars)
	}
	var d dictIndex
	for i, term := range cells {
		if !term.IsZero() {
			t.Cells[i] = d.add(term)
		}
	}
	t.Dict = d.terms
	return t
}

// Term returns the term of row i in column c, the zero Term when the cell
// is unbound.
func (t Table) Term(i, c int) rdf.Term { return t.terms().of(t.Cells[i*len(t.Vars)+c]) }

func (t Table) terms() terms { return terms{first: t.Dict} }

// row returns the cells of row i, aliasing the table.
func (t Table) row(i int) []uint32 {
	w := len(t.Vars)
	return t.Cells[i*w : (i+1)*w : (i+1)*w]
}

// SizeBytes is the wire size of the table under the one table rule: a
// store.match reply carries one Table per unit it answers, each charged
// this. It is arithmetic over the cells and the entries they use.
func (t Table) SizeBytes() int { return usageOf(t.Vars, t.Cells, t.Dict).size(t.N) }

// Binds reports whether some row binds v.
func (t Table) Binds(v string) bool {
	c := slices.Index(t.Vars, v)
	for i := c; c >= 0 && i < len(t.Cells); i += len(t.Vars) {
		if t.Cells[i] != 0 {
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
// look cheap beside it. t must have cells.
func (t Table) RowEstimate(vars []string) int {
	u := usageOf(t.Vars, t.Cells, t.Dict)
	return len(vars) * (len(t.Cells)*cellWidth(u.distinct) + u.bytes) / len(t.Cells)
}

// KeyTable returns the distinct projection of seeds onto vars, a subset of
// their schema, first occurrences in seed order, over the seeds'
// dictionary. Without variables the projection is the unit key.
func KeyTable(seeds Table, vars []string) Table {
	if len(vars) == 0 {
		return Table{N: 1}
	}
	return distinctRows(seeds, vars)
}

// distinctRows is KeyTable's projection, and Distinct's over every column.
func distinctRows(seeds Table, vars []string) Table {
	cols := make([]int, len(vars))
	for k, v := range vars {
		cols[k] = slices.Index(seeds.Vars, v)
	}
	// Pass one finds the distinct rows, pass two copies them into a table
	// of exactly that size.
	head := make([]int32, buckets(seeds.N)) // key hash → last distinct seed there (1-based)
	next := make([]int32, seeds.N)          // seed → previous distinct seed in its bucket
	distinct := make([]int32, 0, seeds.N)
	for i := 0; i < seeds.N; i++ {
		row := seeds.row(i)
		b := hashCols(row, cols) & uint64(len(head)-1)
		c := head[b]
		for c != 0 && !sameCols(row, seeds.row(int(c-1)), cols, cols) {
			c = next[c-1]
		}
		if c != 0 {
			continue
		}
		next[i] = head[b]
		head[b] = int32(i + 1)
		distinct = append(distinct, int32(i))
	}
	cells := make([]uint32, 0, len(distinct)*len(vars))
	for _, i := range distinct {
		row := seeds.row(int(i))
		for _, c := range cols {
			cells = append(cells, row[c])
		}
	}
	return Table{Vars: vars, Dict: seeds.Dict, Cells: cells, N: len(distinct)}
}

// buckets is the size of a hash index over n rows: a power of two, at
// least n and 16.
func buckets(n int) int {
	b := 16
	for b < n {
		b *= 2
	}
	return b
}

// sameCols reports whether a's columns ac hold b's columns bc, pairwise.
func sameCols(a, b []uint32, ac, bc []int) bool {
	for k, c := range ac {
		if a[c] != b[bc[k]] {
			return false
		}
	}
	return true
}

// compatible is sameCols where an unbound cell agrees with any term, a's
// cells read through the remap ra.
func compatible(a, b []uint32, ra []uint32, ac, bc []int) bool {
	for k, c := range ac {
		if s, t := ra[a[c]], b[bc[k]]; s != t && s != 0 && t != 0 {
			return false
		}
	}
	return true
}

// unbound reports whether row leaves one of the columns cols unbound.
func unbound(row []uint32, cols []int) bool {
	for _, c := range cols {
		if row[c] == 0 {
			return true
		}
	}
	return false
}

// Matches accumulates the reply tables of one pattern's targets into one
// table and joins it with the partial solutions the keys were projected
// from. A row equal to one already held is dropped on arrival: the query
// dataset is the set union of the providers' triples (Sect. IV-A), and for
// one pattern a row determines the matched triple. A reply never repeats a
// row itself — a provider's graph is a set and keys are distinct — so the
// first non-empty one is held as it comes, its dictionary and cells not
// copied. A later reply's cells are remapped into the held dictionary as
// they are added, one lookup per distinct term. One hash index serves the
// de-duplication and the join; it is keyed on the key columns, on the whole
// row when there are none, and is not built before a second non-empty reply
// or a join needs it. Keyed on the columns the replies share with the rows
// they join, the accumulator is the join's index: Join probes it as it
// stands. A reply binds every cell; only a table JoinTables or
// LeftJoinTables indexes can leave a key column unbound, and such a row is
// kept off the chains, in loose, the way joinIndex keeps one.
type Matches struct {
	vars     []string  // the replies' schema
	dict     dictIndex // the rows' dictionary, indexed once a lookup needs it
	cells    []uint32  // distinct rows in arrival order
	n        int
	sizeHint int
	remap    []uint32 // Add's scratch: a reply's positions in dict, 0 until looked up
	keys     []string // the join variables: a column of vars is a key column when keys names it
	cols     []int    // the key columns; every column when there are none
	head     []int32  // key hash → last row added in its bucket (1-based)
	next     []int32  // row → previous row in its bucket
	loose    []int32  // rows leaving a key column unbound, in arrival order
}

// NewMatches returns an empty accumulator for the replies of a pattern whose
// join columns are those of its variables that keys has — whether a target
// was sent those keys or the unit key in their place, its reply joins and
// de-duplicates on the same columns. keys may be the very rows the replies
// will join, whose schema names every variable the two share. sizeHint is the number of rows to make room for when the caller
// knows a bound (the location table's frequencies give one for the unit
// key), zero otherwise.
func NewMatches(keys Table, sizeHint int) *Matches {
	return &Matches{keys: keys.Vars, sizeHint: sizeHint}
}

// Len is the number of distinct rows held.
func (m *Matches) Len() int { return m.n }

// Table returns the rows so far, in arrival order, where they lie — no
// schema before the first row arrives. Add only appends past what was
// returned earlier, so a table already handed to the fabric stays as it
// was.
func (m *Matches) Table() Table {
	if m.n == 0 {
		return Table{}
	}
	d := m.dict.terms
	return Table{Vars: m.vars, Dict: d[:len(d):len(d)], Cells: m.cells[:len(m.cells):len(m.cells)], N: m.n}
}

// Add appends the rows of t that are not yet held.
func (m *Matches) Add(t Table) {
	if t.N == 0 {
		return
	}
	if m.n == 0 {
		m.vars, m.dict.terms, m.cells, m.n = t.Vars, slices.Clip(t.Dict), slices.Clip(t.Cells), t.N
		return
	}
	if m.head == nil {
		m.index(max(m.sizeHint, m.n+t.N))
	}
	m.remap = slices.Grow(m.remap[:0], len(t.Dict)+1)[:len(t.Dict)+1]
	clear(m.remap)
	for i := 0; i < t.N; i++ {
		from := len(m.cells)
		for _, k := range t.row(i) {
			if k != 0 && m.remap[k] == 0 {
				m.remap[k] = m.dict.add(t.Dict[k-1])
			}
			m.cells = append(m.cells, m.remap[k])
		}
		m.insert(from)
	}
}

// AddAll adds the replies' rows as Add would, one reply after another:
// the same schema, dictionary order, cells and count. A lone non-empty
// reply is held as it comes. Past the first, the dictionary, the cells and
// the index are allocated once, sized for every reply's terms and rows — a
// bound, duplicates included, that makes sizeHint moot — so none of them
// grows, or is copied again, as the replies are added.
func (m *Matches) AddAll(replies []Table) {
	for len(replies) > 0 && m.n == 0 {
		m.Add(replies[0])
		replies = replies[1:]
	}
	terms, rows, widest := 0, 0, 0
	for _, t := range replies {
		if t.N > 0 {
			terms, rows, widest = terms+len(t.Dict), rows+t.N, max(widest, len(t.Dict))
		}
	}
	if rows == 0 {
		return
	}
	if m.head == nil {
		m.index(m.n + rows)
	}
	m.dict.reserve(terms)
	m.remap = slices.Grow(m.remap[:0], widest+1)
	for _, t := range replies {
		m.Add(t)
	}
}

// keyed reports whether some column is a key column.
func (m *Matches) keyed() bool {
	for _, v := range m.vars {
		if slices.Contains(m.keys, v) {
			return true
		}
	}
	return false
}

// index builds the hash index over the rows held so far, with room for
// room rows in all.
func (m *Matches) index(room int) {
	m.cols = make([]int, 0, len(m.vars))
	for c, v := range m.vars {
		if slices.Contains(m.keys, v) {
			m.cols = append(m.cols, c)
		}
	}
	if len(m.cols) == 0 {
		for c := range m.vars {
			m.cols = append(m.cols, c)
		}
	}
	if room > m.n {
		m.cells = slices.Grow(m.cells, (room-m.n)*len(m.vars))
	}
	m.next = make([]int32, m.n, room)
	m.rehash(buckets(room))
}

// rehash chains every row held into n buckets, in arrival order.
func (m *Matches) rehash(n int) {
	m.head, m.loose = make([]int32, n), m.loose[:0]
	for i := 0; i < m.n; i++ {
		row := m.row(i)
		if unbound(row, m.cols) {
			m.loose = append(m.loose, int32(i))
			continue
		}
		b := hashCols(row, m.cols) & uint64(n-1)
		m.next[i] = m.head[b]
		m.head[b] = int32(i + 1)
	}
}

func (m *Matches) row(i int) []uint32 {
	w := len(m.vars)
	return m.cells[i*w : (i+1)*w : (i+1)*w]
}

// insert keeps the row added at cells[from:] unless it is held already.
func (m *Matches) insert(from int) {
	row := m.cells[from:]
	b := hashCols(row, m.cols) & uint64(len(m.head)-1)
	for c := m.head[b]; c != 0; c = m.next[c-1] {
		if slices.Equal(row, m.row(int(c-1))) {
			m.cells = m.cells[:from]
			return
		}
	}
	m.n++
	m.next = append(m.next, m.head[b])
	m.head[b] = int32(m.n)
	if m.n > 2*len(m.head) {
		m.rehash(2 * len(m.head))
	}
}

// Join extends every seed row by the rows whose key columns it agrees with
// — every row when no variable is shared — seeds in their order, a seed's
// rows in arrival order. Every variable the seeds and the rows share must
// be a key variable. The result's schema is the seeds' variables followed
// by the rows' others, and its cells are copied into one arena sized before
// it is filled.
func (m *Matches) Join(seeds Table) Table { return m.join(seeds, nil, false) }

// JoinTables returns a ⋈ b in Join's sequence: each row of a extended by
// every row of b that agrees with it wherever both bind a shared variable,
// in b's order. b is indexed as Matches indexes its replies, on the shared
// variables, and its rows are not de-duplicated.
func JoinTables(a, b Table) Table { return over(a, b).join(a, nil, false) }

// LeftJoinTables returns LeftJoin(a, b, expr) in LeftJoinFilter's sequence:
// JoinTables' extensions that satisfy expr (all of them when it is nil), a
// row of a no extension is kept for left with b's other variables unbound —
// after every extension when expr is nil, in its own place otherwise.
func LeftJoinTables(a, b Table, expr sparql.Expression) Table {
	return over(a, b).join(a, expr, true)
}

// over indexes b's rows on the variables they share with a — JoinTables'
// choice of key variables — where they lie.
func over(a, b Table) *Matches {
	return &Matches{vars: b.Vars, dict: dictIndex{terms: slices.Clip(b.Dict)}, cells: b.Cells, n: b.N, keys: a.Vars}
}

// into remaps a dictionary into m's: position k of dict goes to its term's
// position in m's dictionary, or past it, to len(m's) + k, when m's lacks
// the term. One lookup per term; 0 stays 0.
func (m *Matches) into(dict []rdf.Term) []uint32 {
	r := make([]uint32, len(dict)+1)
	past := uint32(len(m.dict.terms))
	for k, t := range dict {
		if r[k+1] = m.dict.find(t); r[k+1] == 0 {
			r[k+1] = past + uint32(k) + 1
		}
	}
	return r
}

// join is the one Table join kernel, behind Join, JoinTables and
// LeftJoinTables: the seeds' dictionary is remapped into the rows', pass
// one lists every seed's rows, pass two copies the extensions out, dropping
// those failing expr; with left, a seed left without an extension is kept
// as LeftJoinTables says. The result keeps the terms its cells use.
func (m *Matches) join(seeds Table, expr sparql.Expression, left bool) Table {
	if seeds.N == 0 || m.n == 0 && !left {
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
	ra := m.into(seeds.Dict)
	space := terms{first: m.dict.terms, second: seeds.Dict}
	hits, ends, probe := m.hits(seeds, ra)
	size := len(hits)
	if left {
		size += seeds.N
	}
	cells := make([]uint32, 0, size*len(vars))
	n := 0
	keep := rowFilter(vars, space, expr)
	extend := func(x []uint32) {
		for _, k := range x {
			cells = append(cells, ra[k])
		}
	}
	pad := func(x []uint32) {
		extend(x)
		for range add {
			cells = append(cells, 0)
		}
		n++
	}
	from := 0
	for i, end := range ends {
		x, matched := seeds.row(i), false
		for _, r := range hits[from:end] {
			at, row := len(cells), m.row(int(r))
			extend(x)
			for _, c := range add {
				cells = append(cells, row[c])
			}
			for k, c := range probe {
				if x[c] == 0 {
					cells[at+c] = row[m.cols[k]]
				}
			}
			if keep != nil && !keep(cells[at:]) {
				cells = cells[:at]
				continue
			}
			n++
			matched = true
		}
		from = end
		if left && !matched && expr != nil {
			pad(x)
		}
	}
	if left && expr == nil { // every hit was kept: a seed without one is unmatched
		from = 0
		for i, end := range ends {
			if end == from {
				pad(seeds.row(i))
			}
			from = end
		}
	}
	dict := compact(cells, len(m.dict.terms)+len(seeds.Dict), space)
	return Table{Vars: vars, Dict: dict, Cells: cells, N: n}
}

// hits lists the rows compatible with each seed, in arrival order: seed i's
// are hits[ends[i-1]:ends[i]]. probe is the seed column of each key column;
// the seeds' cells are read through ra.
func (m *Matches) hits(seeds Table, ra []uint32) (hits []int32, ends, probe []int) {
	var cols []int // no key columns: every row matches every seed
	if m.keyed() {
		if m.head == nil {
			m.index(m.n)
		}
		cols = m.cols
	}
	probe = make([]int, len(cols))
	for k, c := range cols {
		probe[k] = slices.Index(seeds.Vars, m.vars[c])
	}
	hits = make([]int32, 0, max(seeds.N, m.n))
	ends = make([]int, seeds.N)
	for i := range ends {
		x, from := seeds.row(i), len(hits)
		if len(cols) == 0 || unbound(x, probe) { // any row may match: scan them all
			for r := 0; r < m.n; r++ {
				if compatible(x, m.row(r), ra, probe, cols) {
					hits = append(hits, int32(r))
				}
			}
		} else {
			h := hashInit
			for _, c := range probe { // as hashCols folds a row
				h = mix(h, uint64(ra[x[c]]))
			}
			for c := m.head[h&hashMask&uint64(len(m.head)-1)]; c != 0; c = m.next[c-1] {
				if compatible(x, m.row(int(c-1)), ra, probe, cols) {
					hits = append(hits, c-1)
				}
			}
			slices.Reverse(hits[from:]) // chains run newest first
			for _, r := range m.loose {
				if compatible(x, m.row(int(r)), ra, probe, cols) {
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
