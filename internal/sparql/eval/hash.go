package eval

import (
	"math/bits"
	"slices"
	"sort"

	"adhocshare/internal/rdf"
)

// Rows are located by hash and compared by Equal/Compatible, never by
// their printed form. The hash reads the terms' fields eight bytes at a
// time through a multiply-rotate round and has no per-process seed: a bug
// on the collision path must reproduce run to run like every same-seed
// transcript. No map keyed by it is ever iterated, so it cannot leak into
// output order either.
const (
	hashInit uint64 = 0x27D4EB2F165667C5
	mulA     uint64 = 0x9E3779B185EBCA87
	mulB     uint64 = 0xC2B2AE3D27D4EB4F
)

// hashMask is ANDed into every row and join-key hash. Tests zero it so that
// every lookup collides and Equal/Compatible alone decide.
var hashMask = ^uint64(0)

func mix(h, w uint64) uint64 { return bits.RotateLeft64(h^(w*mulB), 31) * mulA }

// hashString folds s into h. The last round carries the trailing bytes
// together with the length, which keeps adjacent fields apart ("ab","c"
// against "a","bc").
func hashString(h uint64, s string) uint64 {
	w := uint64(len(s)) << 56
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix(h, w)
}

func hashTerm(h uint64, t rdf.Term) uint64 {
	return hashString(hashString(hashString(mix(h, uint64(t.Kind)), t.Value), t.Lang()), t.Datatype())
}

// hashCols folds the cells of row's columns cols, in order: how a table's
// rows are located, their terms being dictionary positions (Table).
func hashCols(row []uint32, cols []int) uint64 {
	h := hashInit
	for _, c := range cols {
		h = mix(h, uint64(row[c]))
	}
	return h & hashMask
}

// rowHash hashes a whole mapping. The (variable, term) pairs are folded by
// addition, so map iteration order does not matter and nothing is sorted.
func rowHash(b Binding) uint64 {
	var sum uint64
	for v, t := range b {
		sum += hashTerm(hashString(hashInit, v), t)
	}
	return sum & hashMask
}

// keyHash hashes the terms b binds to vars, in order; false when b leaves
// one of them unbound.
func keyHash(b Binding, vars []string) (uint64, bool) {
	h := hashInit
	for _, v := range vars {
		t, ok := b[v]
		if !ok {
			return 0, false
		}
		h = hashTerm(h, t)
	}
	return h & hashMask, true
}

// SharedVars returns the sorted variables bound in some mapping of a and in
// some mapping of b.
func SharedVars(a, b Solutions) []string {
	inA := map[string]bool{}
	for _, x := range a {
		for v := range x {
			inA[v] = true
		}
	}
	var out []string
	for _, y := range b {
		for v := range y {
			if inA[v] {
				inA[v] = false // report each once
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// joinIndex is the build side of Join and LeftJoin*: the rows of one
// operand chained by the hash of the terms they bind to the variables shared
// with the other. Chains and loose hold row indexes in input order (1-based
// in head/next so that zero ends a chain), which is what keeps every
// operation's output in nested-loop order.
type joinIndex struct {
	rows   Solutions
	shared []string
	head   map[uint64]int32 // key hash → first row with it
	next   []int32          // row → next row with the same key hash
	loose  []int32          // rows leaving a shared variable unbound
}

// newJoinIndex indexes b for probing with the rows of a. Without shared
// variables every row lands in one chain and a probe walks all of b.
func newJoinIndex(a, b Solutions) *joinIndex {
	ix := &joinIndex{rows: b, shared: SharedVars(a, b),
		head: make(map[uint64]int32, len(b)), next: make([]int32, len(b))}
	for i := len(b) - 1; i >= 0; i-- { // backwards, so prepending yields input order
		h, ok := keyHash(b[i], ix.shared)
		if !ok {
			ix.loose = append(ix.loose, int32(i+1))
			continue
		}
		ix.next[i] = ix.head[h]
		ix.head[h] = int32(i + 1)
	}
	slices.Reverse(ix.loose)
	return ix
}

// compatible returns, in buf, the indexes of the indexed rows compatible
// with x, in input order.
func (ix *joinIndex) compatible(x Binding, buf []int) []int {
	buf = buf[:0]
	h, ok := keyHash(x, ix.shared)
	if !ok { // x leaves a shared variable unbound: any row may match
		for i, y := range ix.rows {
			if x.Compatible(y) {
				buf = append(buf, i)
			}
		}
		return buf
	}
	// Merge x's chain with the loose rows by index.
	c, loose := ix.head[h], ix.loose
	for c != 0 || len(loose) > 0 {
		var i int
		if c != 0 && (len(loose) == 0 || c < loose[0]) {
			i, c = int(c-1), ix.next[c-1]
		} else {
			i, loose = int(loose[0]-1), loose[1:]
		}
		if x.Compatible(ix.rows[i]) {
			buf = append(buf, i)
		}
	}
	return buf
}

// Dedup is a duplicate-free solution sequence built batch by batch, keeping
// first occurrences in arrival order. The zero value is empty and ready.
type Dedup struct {
	rows Solutions
	head map[uint64]int32 // row hash → last row added with it (1-based)
	next []int32          // row → previous row with the same hash
}

// Add appends the mappings of s that are not yet in the sequence.
func (d *Dedup) Add(s Solutions) {
	if d.head == nil && len(s) > 0 {
		d.head = make(map[uint64]int32, len(s))
		d.rows = make(Solutions, 0, len(s))
		d.next = make([]int32, 0, len(s))
	}
	for _, b := range s {
		h := rowHash(b)
		first := d.head[h]
		c := first
		for c != 0 && !b.Equal(d.rows[c-1]) {
			c = d.next[c-1]
		}
		if c != 0 {
			continue
		}
		d.rows = append(d.rows, b)
		d.next = append(d.next, first)
		d.head[h] = int32(len(d.rows))
	}
}

// Solutions returns the sequence so far. The result shares its backing
// array with the accumulator and with every earlier result — Add only ever
// appends past them — so a prefix already handed to the fabric stays
// immutable.
func (d *Dedup) Solutions() Solutions { return d.rows[:len(d.rows):len(d.rows)] }
