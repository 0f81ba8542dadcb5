package rdf

import (
	"slices"

	"adhocshare/internal/lockcheck"
)

// Graph is an in-memory RDF triple store. Every term is interned once in a
// per-graph dictionary (Term ↔ uint32 ID) and every triple is held as ID
// pairs in three sorted lists — spo[s] ordered by (p,o), pos[p] by (o,s),
// osp[o] by (s,p) — so any triple pattern is answered from one contiguous,
// binary-searched run of the list of one bound term. It is safe for
// concurrent use.
//
// Order contract: matches stream in ascending ID order of the scanned list,
// and IDs are handed out in first-use order (subject, predicate, object of
// each added triple; an ID whose last triple was removed is released, and
// a new term takes the most recently released ID that is free for its
// position — see internLocked — before any other). Match order is therefore
// a function of the graph's edit history alone: two graphs built by the
// same sequence of Add and Remove calls stream identical sequences. IDs
// never leave the node that owns the graph — no payload, key or message
// carries one; a Reader shows them to the owner, which builds a reply's
// dictionary by them.
//
// Storage nodes in the overlay each own one Graph — the paper's premise is
// that providers keep and serve their own data locally (Sect. III).
type Graph struct {
	mu    lockcheck.RWMutex
	ids   map[Term]uint32
	terms []Term       // by ID; the zero Term at a released ID
	refs  []uint32     // by ID: how many triple positions name the term
	free  [3][]uint32  // released IDs, by the index order of their largest list
	lists [3][][]entry // by index order, then by the ID in its first position
	size  int
}

// The three index orders.
const (
	spo = iota // lists[spo][s] holds (p,o)
	pos        // lists[pos][p] holds (o,s)
	osp        // lists[osp][o] holds (s,p)
)

// rot[ix+j] is the triple position (subject 0, predicate 1, object 2) in
// position j of index order ix.
var rot = [5]int{0, 1, 2, 0, 1}

// entry is one triple in the list of its first ID: the second ID in the
// high half and the third in the low half, so integer order is (second,
// third) order.
type entry uint64

func mkEntry(a, b uint32) entry { return entry(a)<<32 | entry(b) }

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{ids: make(map[Term]uint32)}
}

// Add inserts a concrete triple. It reports whether the triple was new.
// Adding a non-concrete triple (a pattern) is a no-op returning false.
func (g *Graph) Add(t Triple) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addLocked(t)
}

// AddAll inserts every triple of ts, returning the number actually added.
func (g *Graph) AddAll(ts []Triple) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, t := range ts {
		if g.addLocked(t) {
			n++
		}
	}
	return n
}

func (g *Graph) addLocked(t Triple) bool {
	if !t.IsConcrete() {
		return false
	}
	// A stored triple's terms all have IDs, so a duplicate interns nothing.
	k := [3]uint32{g.internLocked(t.S, spo), g.internLocked(t.P, pos), g.internLocked(t.O, osp)}
	for ix := range g.lists {
		l, e := &g.lists[ix][k[ix]], mkEntry(k[rot[ix+1]], k[rot[ix+2]])
		i, dup := slices.BinarySearch(*l, e)
		if dup {
			return false // found in the first list, before anything was written
		}
		*l = slices.Insert(*l, i, e)
		g.refs[k[ix]]++
	}
	g.size++
	return true
}

// internLocked returns t's ID, giving a term the graph does not hold a
// released ID or, when none is free, the next unused one. A released ID
// keeps its lists' arrays, and a term's first entries go to the list of
// its position in the triple (ix, its index order), so the term takes the
// most recently released ID whose largest array is of that order: a
// subject the array of a released subject's (p,o) pairs, not the
// one-entry array a released literal object had. Only when no such ID is
// free does it take one of another order, (ix+1)%3 before (ix+2)%3.
func (g *Graph) internLocked(t Term, ix int) uint32 {
	if id, ok := g.ids[t]; ok {
		return id
	}
	for j := range g.free {
		if f := &g.free[(ix+j)%3]; len(*f) > 0 {
			id := (*f)[len(*f)-1]
			*f = (*f)[:len(*f)-1]
			g.terms[id] = t
			g.ids[t] = id
			return id
		}
	}
	id := uint32(len(g.terms))
	g.terms = append(g.terms, t)
	g.refs = append(g.refs, 0)
	for o := range g.lists {
		g.lists[o] = append(g.lists[o], nil)
	}
	g.ids[t] = id
	return id
}

// releaseLocked takes the term under id, whose last triple went, out of
// the dictionary, and frees id onto the list of the index order of its
// largest array (the first such order on a tie).
func (g *Graph) releaseLocked(id uint32) {
	delete(g.ids, g.terms[id])
	g.terms[id] = Term{}
	largest := spo
	for ix := range g.lists {
		if cap(g.lists[ix][id]) > cap(g.lists[largest][id]) {
			largest = ix
		}
	}
	g.free[largest] = append(g.free[largest], id)
}

// Remove deletes a triple, reporting whether it was present. A term whose
// last triple goes leaves the dictionary and its ID becomes reusable.
func (g *Graph) Remove(t Triple) bool {
	if !t.IsConcrete() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	_, s, run := g.runLocked(&t, BoundS|BoundP|BoundO)
	if len(run) == 0 {
		return false
	}
	k := [3]uint32{s, uint32(run[0] >> 32), uint32(run[0])}
	for ix := range g.lists {
		// A list keeps its backing array when its last entry goes, so a
		// term re-added under the same or a re-used ID refills it without
		// allocating; an array stays bounded by the largest size it held.
		l := &g.lists[ix][k[ix]]
		i, _ := slices.BinarySearch(*l, mkEntry(k[rot[ix+1]], k[rot[ix+2]]))
		*l = slices.Delete(*l, i, i+1)
		if g.refs[k[ix]]--; g.refs[k[ix]] == 0 {
			g.releaseLocked(k[ix])
		}
	}
	g.size--
	return true
}

// Has reports whether the concrete triple is stored.
func (g *Graph) Has(t Triple) bool {
	return t.IsConcrete() && g.CountMatch(t) == 1
}

// Size returns the number of stored triples.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.size
}

// Triples returns a snapshot of all stored triples: subjects in ascending
// ID order (IDs in first-use order, see Graph), each subject's triples in
// ascending (predicate, object) ID order.
func (g *Graph) Triples() []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Triple, 0, g.size)
	g.forEachLocked(&Triple{}, func(t Triple, _ [3]uint32) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Match returns all stored triples matching the pattern, in ForEachMatch
// order. Variable positions match anything; concrete positions must be
// equal.
func (g *Graph) Match(pat Triple) []Triple {
	var out []Triple
	g.ForEachMatch(pat, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CountMatch returns the number of stored triples matching the pattern
// without materializing them. It backs the location-table frequency counts.
func (g *Graph) CountMatch(pat Triple) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.matchLocked(&pat).n
}

// ForEachMatch streams matches to fn under the graph's read lock; fn
// returns false to stop early. Matches arrive in ascending ID order of the
// list scanned for the pattern's bound mask (IDs in first-use order, see
// Graph): (p,o) order for a bound subject, (o,s) for a bound predicate
// without subject, (s,p) for a bound object without predicate, and Triples
// order when nothing is bound.
func (g *Graph) ForEachMatch(pat Triple, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.forEachLocked(&pat, func(t Triple, _ [3]uint32) bool { return fn(t) })
}

func (g *Graph) forEachLocked(pat *Triple, fn func(Triple, [3]uint32) bool) {
	g.eachLocked(g.matchLocked(pat), fn)
}

// Reader is a graph held under its read lock, for a caller that counts
// the matches of many patterns and then streams them under one lock. A
// Reader is valid only inside the function Read hands it to.
type Reader struct{ g *Graph }

// Read calls fn with a Reader of g, holding g's read lock throughout.
func (g *Graph) Read(fn func(Reader)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fn(Reader{g})
}

// IDs is one past the largest ID the graph has handed out: every ID Each
// shows is below it.
func (r Reader) IDs() int { return r.g.idsLocked() }

// Count is CountMatch (pat is a pointer only to spare a Triple's copy).
func (r Reader) Count(pat *Triple) int { return r.g.matchLocked(pat).n }

// Each streams pat's matches to fn in ForEachMatch's order, each with the
// IDs of its subject, predicate and object, and reports whether fn asked
// for all of them. Equal IDs are equal terms while the graph holds them.
func (r Reader) Each(pat *Triple, fn func(Triple, [3]uint32) bool) bool {
	return r.g.eachLocked(r.g.matchLocked(pat), fn)
}

// Term is the term under an ID Each showed.
func (r Reader) Term(id uint32) Term { return r.g.termLocked(id) }

func (g *Graph) idsLocked() int { return len(g.terms) }

func (g *Graph) termLocked(id uint32) Term { return g.terms[id] }

// matchRun is a pattern's matches: a run of one list in scan order ix, or
// every triple when ix is -1; n is their number.
type matchRun struct {
	ix      int
	first   uint32
	entries []entry
	n       int
}

func (g *Graph) matchLocked(pat *Triple) matchRun {
	m := pat.Mask()
	if m == 0 {
		return matchRun{ix: -1, n: g.size}
	}
	ix, first, entries := g.runLocked(pat, m)
	return matchRun{ix: ix, first: first, entries: entries, n: len(entries)}
}

func (g *Graph) eachLocked(r matchRun, fn func(Triple, [3]uint32) bool) bool {
	if r.ix >= 0 {
		return g.emitLocked(r.ix, r.first, r.entries, fn)
	}
	for s, l := range g.lists[spo] {
		if !g.emitLocked(spo, uint32(s), l, fn) {
			return false
		}
	}
	return true
}

// scanOrder is the index order that answers each bound mask: the one whose
// leading positions are the bound ones.
var scanOrder = [8]int{
	BoundS: spo, BoundS | BoundP: spo, BoundS | BoundP | BoundO: spo,
	BoundP: pos, BoundP | BoundO: pos,
	BoundO: osp, BoundO | BoundS: osp,
}

// runLocked resolves a pattern with bound mask m != 0 to its scan order,
// the ID of the term in the order's first position, and the contiguous run
// of that term's list holding exactly the pattern's matches: the whole
// list, the entries sharing a bound second ID, or the one entry of a fully
// bound pattern. A bound term the dictionary does not hold ends the search
// before any list is touched. (pat is a pointer only to spare the hot path
// copies of a 168-byte Triple.)
func (g *Graph) runLocked(pat *Triple, m BoundMask) (ix int, first uint32, run []entry) {
	ix = scanOrder[m]
	k := [3]*Term{&pat.S, &pat.P, &pat.O}
	second, third := rot[ix+1], rot[ix+2]
	first, ok := g.ids[*k[ix]]
	if !ok {
		return ix, 0, nil
	}
	run = g.lists[ix][first]
	if m&(1<<second) == 0 {
		return ix, first, run
	}
	a, ok := g.ids[*k[second]]
	if !ok {
		return ix, first, nil
	}
	lo := mkEntry(a, 0) // the run is [lo, hi)
	hi := lo + 1<<32
	if m&(1<<third) != 0 {
		b, ok := g.ids[*k[third]]
		if !ok {
			return ix, first, nil
		}
		lo = mkEntry(a, b)
		hi = lo + 1
	}
	i, _ := slices.BinarySearch(run, lo)
	j, _ := slices.BinarySearch(run[i:], hi)
	return ix, first, run[i : i+j]
}

// emitLocked hands fn the triples of one run of lists[ix][first] and
// reports whether fn asked for more.
func (g *Graph) emitLocked(ix int, first uint32, run []entry, fn func(Triple, [3]uint32) bool) bool {
	if len(run) == 0 {
		return true
	}
	var t Triple
	var id [3]uint32
	k := [3]*Term{&t.S, &t.P, &t.O}
	y, z := rot[ix+1], rot[ix+2]
	*k[ix], id[ix] = g.terms[first], first
	for _, e := range run {
		id[y], id[z] = uint32(e>>32), uint32(e)
		*k[y], *k[z] = g.terms[id[y]], g.terms[id[z]]
		if !fn(t, id) {
			return false
		}
	}
	return true
}

// Subjects returns the distinct subjects in the graph in ascending ID
// order.
func (g *Graph) Subjects() []Term { return g.firstsOf(spo) }

// Predicates returns the distinct predicates in the graph in ascending ID
// order.
func (g *Graph) Predicates() []Term { return g.firstsOf(pos) }

func (g *Graph) firstsOf(ix int) []Term {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Term
	for id, l := range g.lists[ix] {
		if len(l) > 0 {
			out = append(out, g.terms[id])
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	out.AddAll(g.Triples())
	return out
}
