package overlay

import (
	"sort"
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
// Table I. It is safe for concurrent use.
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
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[key]
	for i := range row {
		if row[i].Node == node {
			row[i].Freq += delta
			if row[i].Freq <= 0 {
				row = append(row[:i], row[i+1:]...)
				if len(row) == 0 {
					delete(t.rows, key)
					return
				}
			}
			t.rows[key] = row
			return
		}
	}
	if delta > 0 {
		t.rows[key] = append(row, Posting{Node: node, Freq: delta})
	}
}

// Set makes the frequency of (key, node) exactly freq (removing the
// posting when freq ≤ 0) — the idempotent form of Add.
func (t *LocationTable) Set(key chord.ID, node simnet.Addr, freq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[key]
	for i := range row {
		if row[i].Node == node {
			if freq <= 0 {
				row = append(row[:i], row[i+1:]...)
				if len(row) == 0 {
					delete(t.rows, key)
				} else {
					t.rows[key] = row
				}
				return
			}
			row[i].Freq = freq
			t.rows[key] = row
			return
		}
	}
	if freq > 0 {
		t.rows[key] = append(row, Posting{Node: node, Freq: freq})
	}
}

// Get returns a copy of the postings for a key, sorted by node address for
// determinism.
func (t *LocationTable) Get(key chord.ID) []Posting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row := t.rows[key]
	out := append([]Posting(nil), row...)
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// DropNode removes every posting that references the given storage node —
// the timeout-driven cleanup of Sect. III-D. It returns the number of rows
// touched.
func (t *LocationTable) DropNode(node simnet.Addr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	touched := 0
	for key, row := range t.rows {
		var keep []Posting
		for _, p := range row {
			if p.Node != node {
				keep = append(keep, p)
			}
		}
		if len(keep) != len(row) {
			touched++
			if len(keep) == 0 {
				delete(t.rows, key)
			} else {
				t.rows[key] = keep
			}
		}
	}
	return touched
}

// Keys returns all keys present, sorted.
func (t *LocationTable) Keys() []chord.ID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]chord.ID, 0, len(t.rows))
	for k := range t.rows {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
			delete(t.rows, key)
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
// An empty (or nil) row deletes the key. Used for replica synchronization
// and graceful-leave handover, which must be idempotent (the receiver may
// already hold a copy of the row) and must propagate retractions.
func (t *LocationTable) Replace(rows map[chord.ID][]Posting) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, row := range rows {
		if len(row) == 0 {
			delete(t.rows, key)
			continue
		}
		t.rows[key] = append([]Posting(nil), row...)
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
