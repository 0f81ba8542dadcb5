package eval

import "adhocshare/internal/rdf"

// Dict is a table's dictionary as the wire carries it: Len distinct bound
// terms, Bytes their sizes summed. The one table rule (DESIGN §5) charges a
// table of N rows
//
//	4 (row count) + 1 (cell width) + the names of the variables some row binds
//	+ Bytes + N × (those variables) × Width()
//
// that is, one index per cell of the columns that travel, unbound cells
// included: index 0 stands for an unbound cell, index i for the
// dictionary's i-th term. A column no row binds does not travel, so a
// table costs what the same rows cost as mappings (Solutions.SizeBytes). A
// table carries its Dict from where it was counted; the zero Dict is also
// what a table nobody counted carries, and SizeBytes counts one then.
type Dict struct {
	Len, Bytes int
}

// Width is the cell index width: the fewest of 1, 2 or 4 bytes that hold
// Len+1 values.
func (d Dict) Width() int {
	switch {
	case d.Len < 1<<8:
		return 1
	case d.Len < 1<<16:
		return 2
	default:
		return 4
	}
}

// tableBytes is the rule's charge for n rows over vars, cell(i, c) reading
// row i's cell in column c, with dictionary d. A column counts as soon as
// one row binds it, so a bound table costs one look per column.
func tableBytes(vars []string, n int, cell func(i, c int) rdf.Term, d Dict) int {
	size := 5 + d.Bytes
	for c, v := range vars {
		for i := 0; i < n; i++ {
			if !cell(i, c).IsZero() {
				size += len(v) + n*d.Width()
				break
			}
		}
	}
	return size
}

// dictCounter counts the distinct bound terms of a row-major run of cells:
// an open-addressed set of positions + 1 (0 is a free slot), probed from
// the term's hash, at most half full, that grows by doubling. It reads the
// cells where they lie and keeps no copy of a term.
type dictCounter struct {
	Dict
	slots []uint32
}

// count adds cells[from:] to the count of cells[:from].
func (c *dictCounter) count(cells []rdf.Term, from int) {
	for p := from; p < len(cells); p++ {
		t := &cells[p]
		if t.IsZero() {
			continue
		}
		if 2*(c.Len+1) > len(c.slots) {
			c.grow(cells, len(cells)-p)
		}
		mask := uint64(len(c.slots) - 1)
		for i := termHash(t) & mask; ; i = (i + 1) & mask {
			if q := c.slots[i]; q == 0 {
				c.slots[i] = uint32(p + 1)
				c.Len++
				c.Bytes += t.SizeBytes()
				break
			} else if cells[q-1] == *t {
				break
			}
		}
	}
}

// grow doubles the set. A first set has room for half of the more cells
// yet to count to be distinct, and no fewer than 16 slots: a shipped table's
// terms repeat, and doubling from nothing would rehash each term a dozen
// times.
func (c *dictCounter) grow(cells []rdf.Term, more int) {
	old := c.slots
	n := 2 * len(old)
	if old == nil {
		for n = 16; n < more; n *= 2 {
		}
	}
	c.slots = make([]uint32, n)
	mask := uint64(n - 1)
	for _, q := range old {
		if q == 0 {
			continue
		}
		i := termHash(&cells[q-1]) & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = q
	}
}

// termHash places a term in a dictCounter: the row hash's fold of its
// value, under hashMask like every lookup (hash.go). Terms differing in the
// kind or the suffix alone share a probe sequence, and equality tells them
// apart.
func termHash(t *rdf.Term) uint64 { return hashString(hashInit, t.Value) & hashMask }

// dictOf counts the dictionary of cells.
func dictOf(cells []rdf.Term) Dict {
	var c dictCounter
	c.count(cells, 0)
	return c.Dict
}
