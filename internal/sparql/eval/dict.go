package eval

import (
	"slices"

	"adhocshare/internal/rdf"
)

// The one table rule (DESIGN §5) charges a table of N rows
//
//	4 (row count) + 1 (cell width) + the names of the variables some row binds
//	+ each distinct bound term once (its SizeBytes)
//	+ N × (those variables) × the cell width
//
// that is, one index per cell of the columns that travel, unbound cells
// included: index 0 stands for an unbound cell, index i for the
// dictionary's i-th term. A column no row binds does not travel, so a
// table costs what the same rows cost as mappings (Solutions.SizeBytes).
// The host form is the wire form (Table): the charge is read off the
// cells and the dictionary, counting the entries some cell uses.

// cellWidth is the cell index width: the fewest of 1, 2 or 4 bytes that
// hold distinct+1 values.
func cellWidth(distinct int) int {
	switch {
	case distinct < 1<<8:
		return 1
	case distinct < 1<<16:
		return 2
	default:
		return 4
	}
}

// usage is what the rule reads off a table: the columns some row binds and
// their names' lengths, the dictionary entries some cell uses and their
// bytes.
type usage struct {
	cols, names, distinct, bytes int
}

// usageOf reads the usage of cells laid out over vars, indexing dict. A
// bit per entry marks the entries counted; up to 512 of them on the stack.
func usageOf(vars []string, cells []uint32, dict []rdf.Term) (u usage) {
	var small [8]uint64
	seen := small[:]
	if n := len(dict)/64 + 1; n > len(seen) {
		seen = make([]uint64, n)
	}
	w := len(vars)
	for c, v := range vars {
		bound := false
		for i := c; i < len(cells); i += w {
			k := cells[i]
			if k == 0 {
				continue
			}
			bound = true
			if bit := uint64(1) << (k % 64); seen[k/64]&bit == 0 {
				seen[k/64] |= bit
				u.distinct++
				u.bytes += dict[k-1].SizeBytes()
			}
		}
		if bound {
			u.cols++
			u.names += len(v)
		}
	}
	return u
}

// size is the charge of n rows of the usage u.
func (u usage) size(n int) int { return 5 + u.names + u.bytes + n*u.cols*cellWidth(u.distinct) }

// terms reads a cell's term out of a dictionary — or out of the index space
// a join's cells take before they are compacted: first's positions, then
// second's after them.
type terms struct{ first, second []rdf.Term }

func (d terms) of(k uint32) rdf.Term {
	switch {
	case k == 0:
		return rdf.Term{}
	case int(k) <= len(d.first):
		return d.first[k-1]
	}
	return d.second[int(k)-len(d.first)-1]
}

// dictIndex locates terms in a dictionary by value: an open-addressed set
// of 1-based positions in terms (0 is a free slot), probed from the term's
// hash, at most half full, built on the first lookup and doubled as it
// fills. It never holds a term twice.
type dictIndex struct {
	terms []rdf.Term
	slots []uint32
}

// find returns t's position, 0 when the dictionary lacks it.
func (d *dictIndex) find(t rdf.Term) uint32 {
	if len(d.terms) == 0 {
		return 0
	}
	if d.slots == nil {
		d.grow()
	}
	mask := uint64(len(d.slots) - 1)
	for i := termHash(&t) & mask; ; i = (i + 1) & mask {
		switch q := d.slots[i]; {
		case q == 0:
			return 0
		case d.terms[q-1] == t:
			return q
		}
	}
}

// add returns t's position, appending t first when the dictionary lacks
// it. One probe serves both: a miss goes into the free slot the probe ended
// on, or, when the set must grow first, is placed in the grown one.
func (d *dictIndex) add(t rdf.Term) uint32 {
	if d.slots == nil {
		d.grow()
	}
	mask := uint64(len(d.slots) - 1)
	i := termHash(&t) & mask
	for ; d.slots[i] != 0; i = (i + 1) & mask {
		if q := d.slots[i]; d.terms[q-1] == t {
			return q
		}
	}
	p := uint32(len(d.terms) + 1)
	grow := 2*int(p) > len(d.slots)
	if grow {
		d.grow()
	}
	d.terms = append(d.terms, t)
	if grow {
		d.place(p)
	} else {
		d.slots[i] = p
	}
	return p
}

// reserve makes room for n more terms: their storage, and a set that holds
// them all at most half full, each allocated once.
func (d *dictIndex) reserve(n int) {
	d.terms = slices.Grow(d.terms, n)
	size := max(16, len(d.slots))
	for size < 2*(len(d.terms)+n) {
		size *= 2
	}
	if size > len(d.slots) {
		d.slots = make([]uint32, size)
		for p := range d.terms {
			d.place(uint32(p + 1))
		}
	}
}

// grow doubles the set, or makes a first one with room for its terms: no
// fewer than 16 slots, so that a dictionary built term by term is not
// rehashed a dozen times.
func (d *dictIndex) grow() {
	n := max(16, 2*len(d.slots))
	for n < 4*len(d.terms) {
		n *= 2
	}
	d.slots = make([]uint32, n)
	for p := range d.terms {
		d.place(uint32(p + 1))
	}
}

func (d *dictIndex) place(p uint32) {
	mask := uint64(len(d.slots) - 1)
	i := termHash(&d.terms[p-1]) & mask
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = p
}

// termHash places a term in a dictIndex: the row hash's fold of its value,
// finalized, under hashMask like every lookup (hash.go). The fold's low
// bits, which pick the slot, never see the high bytes of its last word —
// where IRIs minted from one prefix differ — so its high half is folded
// into them. Terms differing in the kind or the suffix alone share a probe
// sequence, and equality tells them apart.
func termHash(t *rdf.Term) uint64 {
	h := hashString(hashInit, t.Value)
	return (h ^ h>>32) & hashMask
}

// compact rewrites cells, indices into the n positions d reads, into
// indices into a dictionary of the terms they use, in order of first use,
// and returns that dictionary.
func compact(cells []uint32, n int, d terms) []rdf.Term {
	to := make([]uint32, n+1)
	k := uint32(0)
	for i, u := range cells {
		if u == 0 {
			continue
		}
		if to[u] == 0 {
			k++
			to[u] = k
		}
		cells[i] = to[u]
	}
	dict := make([]rdf.Term, k)
	for u, p := range to {
		if p != 0 {
			dict[p-1] = d.of(uint32(u))
		}
	}
	return dict
}
