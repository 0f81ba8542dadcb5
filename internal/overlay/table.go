package overlay

import (
	"math/bits"
	"slices"
	"strings"

	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
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
// Table I. A row of one posting — almost every row: a key is usually
// shared by one provider — lives in its map slot (one), so emptying and
// refilling it allocates nothing; a row of two or more lives in rows as a
// slice kept sorted by Node on write, so reads copy rows without sorting,
// next to its digest, which every write keeps current, so no write
// re-hashes a row. A key is in at most one of the two maps, and a write
// probes each at most once. It is safe for concurrent use.
type LocationTable struct {
	mu   lockcheck.RWMutex
	one  map[chord.ID]Posting
	rows map[chord.ID]postingRow
}

// postingRow is a row of two or more postings, ascending by Node, and its
// rowDigest: the sum of their postingHashes, which every write moves by the
// hashes of the postings it changes.
type postingRow struct {
	ps  []Posting
	sum uint32
}

// NewLocationTable returns an empty table.
func NewLocationTable() *LocationTable {
	return &LocationTable{one: map[chord.ID]Posting{}, rows: map[chord.ID]postingRow{}}
}

// Add increments the frequency of (key, node) by delta, creating the
// posting as needed. A posting whose frequency drops to zero or below is
// removed.
func (t *LocationTable) Add(key chord.ID, node simnet.Addr, delta int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.updateLocked(key, node, delta, true)
}

// Set makes the frequency of (key, node) exactly freq (removing the
// posting when freq ≤ 0) — the idempotent form of Add.
func (t *LocationTable) Set(key chord.ID, node simnet.Addr, freq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.updateLocked(key, node, freq, false)
}

// BatchWrite is how WriteBatch applies an entry's Freq.
type BatchWrite uint8

const (
	// BatchRead writes nothing: a re-delivered batch is only read back.
	BatchRead BatchWrite = iota
	// BatchSet makes Freq the node's frequency in the row.
	BatchSet
	// BatchAdd adds Freq to the node's frequency in the row.
	BatchAdd
)

// WriteBatch writes a batch of node's postings in one locked pass: entry
// i's Freq is applied to node's posting in row entries[i].Key as w says,
// and the entry is then rewritten to node's frequency in that row (0 when
// it has no posting there) and the row's digest — the entries of the
// write's ReplicaDelta.
func (t *LocationTable) WriteBatch(node simnet.Addr, entries []DeltaEntry, w BatchWrite) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range entries {
		if w == BatchRead {
			entries[i].Freq, entries[i].Digest = t.readLocked(e.Key, node)
		} else {
			entries[i].Freq, entries[i].Digest = t.updateLocked(e.Key, node, e.Freq, w == BatchAdd)
		}
	}
}

// ApplyDelta makes each entry's Freq node's frequency in row entry.Key, in
// one locked pass — a replica holder applying a ReplicaDelta — and returns
// the keys whose row digest then differs from the entry's.
func (t *LocationTable) ApplyDelta(node simnet.Addr, entries []DeltaEntry) []chord.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var stale []chord.ID
	for _, e := range entries {
		if _, digest := t.updateLocked(e.Key, node, e.Freq, false); digest != e.Digest {
			stale = append(stale, e.Key)
		}
	}
	return stale
}

// updateLocked is Add when add is set, else Set, and returns node's
// frequency in key's row and the row's digest as the write left them. A
// new posting is inserted where the row's order puts it; a row moves
// between one and rows as it crosses two postings.
func (t *LocationTable) updateLocked(key chord.ID, node simnet.Addr, v int, add bool) (int, uint32) {
	if p, ok := t.one[key]; ok {
		switch {
		case p.Node == node && add:
			v += p.Freq
		case p.Node != node && v > 0:
			q := Posting{Node: node, Freq: v}
			delete(t.one, key)
			r := postingRow{ps: sortedPair(p, q), sum: postingHash(p) + postingHash(q)}
			t.rows[key] = r
			return v, r.sum
		case p.Node != node:
			return 0, postingHash(p)
		}
		if v <= 0 {
			delete(t.one, key)
			return 0, 0
		}
		p.Freq = v
		t.one[key] = p
		return v, postingHash(p)
	}
	r, ok := t.rows[key]
	if !ok {
		if v <= 0 {
			return 0, 0
		}
		p := Posting{Node: node, Freq: v}
		t.one[key] = p
		return v, postingHash(p)
	}
	i, found := slices.BinarySearchFunc(r.ps, Posting{Node: node}, byNode)
	if found {
		if add {
			v += r.ps[i].Freq
		}
		if v <= 0 {
			return 0, t.removeLocked(key, r, i)
		}
		r.sum -= postingHash(r.ps[i])
		r.ps[i].Freq = v
	} else {
		if v <= 0 {
			return 0, r.sum
		}
		r.ps = slices.Insert(r.ps, i, Posting{Node: node, Freq: v})
	}
	r.sum += postingHash(r.ps[i])
	t.rows[key] = r
	return v, r.sum
}

// readLocked is node's frequency in key's row (0 when it has no posting
// there) and the row's digest.
func (t *LocationTable) readLocked(key chord.ID, node simnet.Addr) (int, uint32) {
	if p, ok := t.one[key]; ok {
		if p.Node != node {
			return 0, postingHash(p)
		}
		return p.Freq, postingHash(p)
	}
	r := t.rows[key]
	i, found := slices.BinarySearchFunc(r.ps, Posting{Node: node}, byNode)
	if !found {
		return 0, r.sum
	}
	return r.ps[i].Freq, r.sum
}

// sortedPair is the two-posting row of a and b, in order.
func sortedPair(a, b Posting) []Posting {
	if byNode(a, b) > 0 {
		a, b = b, a
	}
	return []Posting{a, b}
}

// removeLocked deletes r.ps[i] from key's row of rows, keeping the rest in
// order, and returns the row's digest without it; a row left with one
// posting moves to one.
func (t *LocationTable) removeLocked(key chord.ID, r postingRow, i int) uint32 {
	r.sum -= postingHash(r.ps[i])
	if len(r.ps) == 2 {
		delete(t.rows, key)
		t.one[key] = r.ps[1-i]
	} else {
		r.ps = slices.Delete(r.ps, i, i+1)
		t.rows[key] = r
	}
	return r.sum
}

// byNode orders a row's postings by storage-node address.
func byNode(a, b Posting) int { return strings.Compare(string(a.Node), string(b.Node)) }

// Get returns a copy of the postings for a key, sorted by node address for
// determinism. Rows are kept in that order on write, so the copy is all the
// work.
func (t *LocationTable) Get(key chord.ID) []Posting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowLocked(key)
}

// Rows returns copies of the rows of keys, read under one lock; a key
// without postings maps to nil.
func (t *LocationTable) Rows(keys []chord.ID) map[chord.ID][]Posting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[chord.ID][]Posting, len(keys))
	for _, key := range keys {
		out[key] = t.rowLocked(key)
	}
	return out
}

// rowLocked is a copy of key's row, nil when it has no postings.
func (t *LocationTable) rowLocked(key chord.ID) []Posting {
	if p, ok := t.one[key]; ok {
		return []Posting{p}
	}
	return slices.Clone(t.rows[key].ps)
}

// rowDigest is a row's 32-bit digest, the sum of its postings'
// postingHashes: two tables agree on a row exactly when, barring a
// collision, their digests do. A sum does not depend on the order the
// postings are summed in, so a write moves a kept digest by the hashes of
// the postings it changes, and an absent row digests like an empty one, 0.
// The tables keep their rows' digests this way; rowDigest is the
// from-scratch definition they are held to.
func rowDigest(row []Posting) uint32 {
	var sum uint32
	for _, p := range row {
		sum += postingHash(p)
	}
	return sum
}

// postingHash folds a posting's node address, eight bytes at a time, and
// then its frequency through a multiply-rotate round (eval's row hash),
// and keeps both halves of the result.
func postingHash(p Posting) uint32 {
	const mulA, mulB = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F
	mix := func(h, w uint64) uint64 { return bits.RotateLeft64(h^(w*mulB), 31) * mulA }
	h, s := uint64(0x27D4EB2F165667C5), p.Node
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	w := uint64(len(s)) << 56
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	h = mix(mix(h, w), uint64(p.Freq))
	return uint32(h>>32) ^ uint32(h)
}

// DropNode removes every posting that references the given storage node —
// the timeout-driven cleanup of Sect. III-D. It returns the number of rows
// touched.
func (t *LocationTable) DropNode(node simnet.Addr) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	touched := 0
	for key, p := range t.one {
		if p.Node == node {
			touched++
			delete(t.one, key)
		}
	}
	for key, r := range t.rows {
		if i, found := slices.BinarySearchFunc(r.ps, Posting{Node: node}, byNode); found {
			touched++
			t.removeLocked(key, r, i)
		}
	}
	return touched
}

// Len returns the number of rows.
func (t *LocationTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.one) + len(t.rows)
}

// Postings returns the total number of postings across all rows.
func (t *LocationTable) Postings() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.one)
	for _, r := range t.rows {
		n += len(r.ps)
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
// Every returned row is a fresh slice: the rows travel over the wire to
// another node, and a row of rows shares its backing array with nothing
// the table keeps.
func (t *LocationTable) takeRange(from, to chord.ID, remove bool) map[chord.ID][]Posting {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[chord.ID][]Posting{}
	for key, p := range t.one {
		if ringRightIncl(key, from, to) {
			out[key] = []Posting{p}
			if remove {
				delete(t.one, key)
			}
		}
	}
	for key, r := range t.rows {
		if ringRightIncl(key, from, to) {
			out[key] = slices.Clone(r.ps)
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
	out := make(map[chord.ID][]Posting, len(t.one)+len(t.rows))
	for key, p := range t.one {
		out[key] = []Posting{p}
	}
	for key, r := range t.rows {
		out[key] = slices.Clone(r.ps)
	}
	return out
}

// Merge installs the given rows under one lock, summing frequencies with
// existing postings.
func (t *LocationTable) Merge(rows map[chord.ID][]Posting) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, row := range rows {
		for _, p := range row {
			t.updateLocked(key, p.Node, p.Freq, true)
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
		delete(t.one, key)
		delete(t.rows, key)
		switch len(row) {
		case 0:
		case 1:
			t.one[key] = row[0]
		default:
			row = slices.Clone(row)
			slices.SortFunc(row, byNode)
			t.rows[key] = postingRow{ps: row, sum: rowDigest(row)}
		}
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
