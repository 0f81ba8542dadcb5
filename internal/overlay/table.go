package overlay

import (
	"slices"
	"strings"
	"sync"

	"adhocshare/internal/chord"
	"adhocshare/internal/simnet"
)

// Posting records that a storage node shares Freq triples whose attribute
// combination hashes to the row's key — one entry of the paper's Table I
// ("Storage node (frequency)").
type Posting struct {
	Node simnet.Addr
	Freq int
}

// SizeBytes implements simnet.Payload for postings shipped in responses.
func (p Posting) SizeBytes() int { return len(p.Node) + intWidth(p.Freq) }

// LocationTable is the per-index-node key → postings map of Fig. 2 /
// Table I. Every row is kept sorted by Node on write, so reads copy rows
// without sorting. It is safe for concurrent use.
type LocationTable struct {
	mu   sync.RWMutex
	rows map[chord.ID][]Posting
}

// NewLocationTable returns an empty table.
func NewLocationTable() *LocationTable {
	return &LocationTable{rows: map[chord.ID][]Posting{}}
}

// Add increments the frequency of (key, node) by delta, creating the
// posting as needed. A posting whose frequency drops to zero or below is
// removed.
func (t *LocationTable) Add(key chord.ID, node simnet.Addr, delta int) {
	t.update(key, node, delta, true)
}

// Set makes the frequency of (key, node) exactly freq (removing the
// posting when freq ≤ 0) — the idempotent form of Add.
func (t *LocationTable) Set(key chord.ID, node simnet.Addr, freq int) {
	t.update(key, node, freq, false)
}

// update is Add when add is set, else Set. A new posting is inserted
// where the row's order puts it.
func (t *LocationTable) update(key chord.ID, node simnet.Addr, v int, add bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[key]
	i, found := slices.BinarySearchFunc(row, Posting{Node: node}, byNode)
	if found && add {
		v += row[i].Freq
	}
	switch {
	case v > 0 && found:
		row[i].Freq = v
	case v > 0:
		t.rows[key] = slices.Insert(row, i, Posting{Node: node, Freq: v})
	case found:
		t.removeLocked(key, row, i)
	}
}

// removeLocked deletes row[i], and the row once it is empty, keeping the
// rest of the row in order.
func (t *LocationTable) removeLocked(key chord.ID, row []Posting, i int) {
	if len(row) == 1 {
		delete(t.rows, key)
	} else {
		t.rows[key] = slices.Delete(row, i, i+1)
	}
}

// byNode orders a row's postings by storage-node address.
func byNode(a, b Posting) int { return strings.Compare(string(a.Node), string(b.Node)) }

// Get returns a copy of the postings for a key, sorted by node address for
// determinism. Rows are kept in that order on write, so the copy is all the
// work.
func (t *LocationTable) Get(key chord.ID) []Posting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.rows[key])
}

// PostingDigest reads, under one lock, node's frequency in key's row (0
// when it has no posting there) and the row's digest.
func (t *LocationTable) PostingDigest(key chord.ID, node simnet.Addr) (int, uint32) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row := t.rows[key]
	freq := 0
	if i, found := slices.BinarySearchFunc(row, Posting{Node: node}, byNode); found {
		freq = row[i].Freq
	}
	return freq, rowDigest(row)
}

// rowDigest is a 32-bit FNV-1a hash over a row's postings in their stored
// (sorted) order: two tables agree on a row exactly when, barring a
// collision, their digests do. An absent row hashes like an empty one.
func rowDigest(row []Posting) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	for _, p := range row {
		for i := 0; i < len(p.Node); i++ {
			mix(p.Node[i])
		}
		mix(0)
		for shift := 0; shift < 32; shift += 8 {
			mix(byte(p.Freq >> shift))
		}
	}
	return h
}

// DropNode removes every posting that references the given storage node —
// the timeout-driven cleanup of Sect. III-D. It returns the number of rows
// touched.
func (t *LocationTable) DropNode(node simnet.Addr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	touched := 0
	for key, row := range t.rows {
		if i, found := slices.BinarySearchFunc(row, Posting{Node: node}, byNode); found {
			touched++
			t.removeLocked(key, row, i)
		}
	}
	return touched
}

// Len returns the number of rows.
func (t *LocationTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Postings returns the total number of postings across all rows.
func (t *LocationTable) Postings() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, row := range t.rows {
		n += len(row)
	}
	return n
}

// ExtractRange removes and returns the rows whose keys fall in the ring
// interval (from, to] — the slice an index-node join transfers from its
// successor (Sect. III-C).
func (t *LocationTable) ExtractRange(from, to chord.ID) map[chord.ID][]Posting {
	return t.takeRange(from, to, true)
}

// CopyRange returns copies of the rows whose keys fall in (from, to] and
// keeps them: under replication the joiner's successor stays the first
// holder of the joiner's replica rows.
func (t *LocationTable) CopyRange(from, to chord.ID) map[chord.ID][]Posting {
	return t.takeRange(from, to, false)
}

// takeRange copies the rows in (from, to], deleting them when remove is set.
func (t *LocationTable) takeRange(from, to chord.ID, remove bool) map[chord.ID][]Posting {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[chord.ID][]Posting{}
	for key, row := range t.rows {
		if ringRightIncl(key, from, to) {
			// Copy the row: delete(t.rows, key) drops the map entry but the
			// slice's backing array stays shared with any posting iterators
			// the table handed out, and the extracted rows travel over the
			// wire to another node.
			out[key] = append([]Posting(nil), row...)
			if remove {
				delete(t.rows, key)
			}
		}
	}
	return out
}

// Snapshot copies every row (for graceful handover and replication).
func (t *LocationTable) Snapshot() map[chord.ID][]Posting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[chord.ID][]Posting, len(t.rows))
	for key, row := range t.rows {
		out[key] = append([]Posting(nil), row...)
	}
	return out
}

// Merge installs the given rows, summing frequencies with existing
// postings.
func (t *LocationTable) Merge(rows map[chord.ID][]Posting) {
	for key, row := range rows {
		for _, p := range row {
			t.Add(key, p.Node, p.Freq)
		}
	}
}

// Replace overwrites whole rows with the primary's authoritative content.
// An empty (or nil) row deletes the key. Used for replica repair and
// graceful-leave handover, which must be idempotent (the receiver may
// already hold a copy of the row) and must propagate retractions. Each
// row is stored as a sorted copy, whatever order the sender used.
func (t *LocationTable) Replace(rows map[chord.ID][]Posting) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, row := range rows {
		if len(row) == 0 {
			delete(t.rows, key)
			continue
		}
		row = slices.Clone(row)
		slices.SortFunc(row, byNode)
		t.rows[key] = row
	}
}

// ringRightIncl reports whether x ∈ (from, to] on the identifier circle.
func ringRightIncl(x, from, to chord.ID) bool {
	if from < to {
		return from < x && x <= to
	}
	if from > to {
		return x > from || x <= to
	}
	return true
}
