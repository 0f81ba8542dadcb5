package overlay

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/simnet"
)

// tableModel is the reference the location table is held to: per key, a
// node → frequency map, sorted only when read.
type tableModel map[chord.ID]map[simnet.Addr]int

func (m tableModel) set(key chord.ID, node simnet.Addr, freq int) {
	if freq <= 0 {
		delete(m[key], node)
		if len(m[key]) == 0 {
			delete(m, key)
		}
		return
	}
	if m[key] == nil {
		m[key] = map[simnet.Addr]int{}
	}
	m[key][node] = freq
}

func (m tableModel) add(key chord.ID, node simnet.Addr, delta int) {
	if freq, ok := m[key][node]; ok || delta > 0 {
		m.set(key, node, freq+delta)
	}
}

// row is the model's sorted row; nil for a missing key.
func (m tableModel) row(key chord.ID) []Posting {
	var out []Posting
	for node, freq := range m[key] {
		out = append(out, Posting{Node: node, Freq: freq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// modelNodes are storage addresses whose byte order differs from their
// length order and from the order they are drawn in.
var modelNodes = []simnet.Addr{"storage-9", "storage-10", "s", "storage-1", "a", "zz", "storage-100", "b2", "m", "storage-2"}

// randomRow draws a row of distinct nodes in random (unsorted) order; with
// empty, it may be empty.
func randomRow(rng *rand.Rand, empty bool) []Posting {
	n := rng.Intn(len(modelNodes)) + 1
	if empty {
		n--
	}
	row := make([]Posting, n)
	for i, j := range rng.Perm(len(modelNodes))[:n] {
		row[i] = Posting{Node: modelNodes[j], Freq: 1 + rng.Intn(5)}
	}
	return row
}

func randomRows(rng *rand.Rand, keys int, empty bool) map[chord.ID][]Posting {
	rows := map[chord.ID][]Posting{}
	for k := rng.Intn(3) + 1; k > 0; k-- {
		rows[chord.ID(rng.Intn(keys))] = randomRow(rng, empty)
	}
	return rows
}

// checkAgainstModel holds the table's layout — no key in both maps, every
// row of rows at least two postings strictly ascending by Node — every
// row, read through Get, equal to the model's sorted row, and every row's
// digest, as a write reads it back, the rowDigest of the model's row.
func checkAgainstModel(t *testing.T, tbl *LocationTable, m tableModel, keys int, op string) {
	t.Helper()
	tbl.mu.RLock()
	for key, r := range tbl.rows {
		if _, dup := tbl.one[key]; dup {
			tbl.mu.RUnlock()
			t.Fatalf("after %s: key %v is in both maps", op, key)
		}
		if len(r.ps) < 2 {
			tbl.mu.RUnlock()
			t.Fatalf("after %s: row %v of rows holds %d postings", op, key, len(r.ps))
		}
		for i := 1; i < len(r.ps); i++ {
			if r.ps[i-1].Node >= r.ps[i].Node {
				tbl.mu.RUnlock()
				t.Fatalf("after %s: row %v not strictly ascending: %v", op, key, r.ps)
			}
		}
	}
	tbl.mu.RUnlock()
	for k := 0; k < keys; k++ {
		key := chord.ID(k)
		if got, want := tbl.Get(key), m.row(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: Get(%v) = %v, model %v", op, key, got, want)
		}
		if _, got := postingDigest(tbl, key, ""); got != rowDigest(m.row(key)) {
			t.Fatalf("after %s: row %v keeps digest %x, model's row %v digests %x", op, key, got, m.row(key), rowDigest(m.row(key)))
		}
	}
}

// rowKind is where a key's row lives: 0 absent, 1 one, 2 rows.
func rowKind(tbl *LocationTable, key chord.ID) int {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if _, ok := tbl.one[key]; ok {
		return 1
	}
	if _, ok := tbl.rows[key]; ok {
		return 2
	}
	return 0
}

// transition is an op moving a row between kinds; from == to records an op
// that read or moved a row of that kind as it was (range copies, Merge's
// targets, Snapshot).
type transition struct {
	op       string
	from, to int
}

// TestLocationTableMatchesSortOnReadModel runs random sequences of Add,
// Set, WriteBatch, ApplyDelta, Replace (with unsorted rows), Merge, DropNode,
// ExtractRange, CopyRange and Snapshot against a map-plus-sort-on-read
// model: rows kept sorted on write, one-posting rows in their map slot,
// must read exactly as the model's rows sorted on read. It requires the
// sequences to cover every move of a row between one posting and two and
// from one to none, and every copying op over rows of both kinds.
func TestLocationTableMatchesSortOnReadModel(t *testing.T) {
	const keys = 12
	rng := rand.New(rand.NewSource(32))
	seen := map[transition]bool{}
	for seq := 0; seq < 200; seq++ {
		tbl, m := NewLocationTable(), tableModel{}
		for step := 0; step < 60; step++ {
			key := chord.ID(rng.Intn(keys))
			node := modelNodes[rng.Intn(len(modelNodes))]
			var before [keys]int
			for k := range before {
				before[k] = rowKind(tbl, chord.ID(k))
			}
			var op string
			var over []chord.ID // the rows a copying op read, in their kind before it
			switch rng.Intn(9) {
			case 0:
				op = "Add"
				delta := rng.Intn(8) - 3
				if row := m.row(key); len(row) > 0 && delta < 0 {
					// Decrement a posting the row holds, often to nothing.
					node = row[rng.Intn(len(row))].Node
				}
				tbl.Add(key, node, delta)
				m.add(key, node, delta)
			case 1:
				op = "Set"
				freq := rng.Intn(7) - 1
				tbl.Set(key, node, freq)
				m.set(key, node, freq)
			case 2:
				entries := make([]DeltaEntry, rng.Intn(4)+1)
				for i := range entries {
					entries[i] = DeltaEntry{Key: chord.ID(rng.Intn(keys)), Freq: rng.Intn(8) - 3, Digest: uint32(rng.Intn(2))}
				}
				sent := slices.Clone(entries)
				if op = "ApplyDelta"; rng.Intn(2) == 0 {
					op = "WriteBatch"
					w := BatchWrite(rng.Intn(3))
					tbl.WriteBatch(node, entries, w)
					for i, e := range sent {
						switch w {
						case BatchSet:
							m.set(e.Key, node, e.Freq)
						case BatchAdd:
							m.add(e.Key, node, e.Freq)
						}
						want := DeltaEntry{Key: e.Key, Freq: m[e.Key][node], Digest: rowDigest(m.row(e.Key))}
						if entries[i] != want {
							t.Fatalf("WriteBatch entry %d read back %+v, model %+v", i, entries[i], want)
						}
					}
					break
				}
				// A delta's digest is the sender's row's: here the model's
				// when the draw says so, else one the row cannot have.
				var wantStale []chord.ID
				for i, e := range sent {
					m.set(e.Key, node, e.Freq)
					if digest := rowDigest(m.row(e.Key)); e.Digest == 0 {
						entries[i].Digest = digest
					} else {
						entries[i].Digest = ^digest
						wantStale = append(wantStale, e.Key)
					}
				}
				if stale := tbl.ApplyDelta(node, entries); !slices.Equal(stale, wantStale) {
					t.Fatalf("ApplyDelta stale keys %v, model %v", stale, wantStale)
				}
			case 3:
				op = "Replace"
				rows := randomRows(rng, keys, true)
				tbl.Replace(rows)
				for k, row := range rows {
					delete(m, k)
					for _, p := range row {
						m.set(k, p.Node, p.Freq)
					}
				}
			case 4:
				op = "Merge"
				rows := randomRows(rng, keys, false)
				tbl.Merge(rows)
				for k, row := range rows {
					over = append(over, k)
					for _, p := range row {
						m.add(k, p.Node, p.Freq)
					}
				}
			case 5:
				op = "DropNode"
				tbl.DropNode(node)
				for k := range m {
					m.set(k, node, 0)
				}
			case 6, 7:
				from, to := chord.ID(rng.Intn(keys)), chord.ID(rng.Intn(keys))
				var got map[chord.ID][]Posting
				if op = "CopyRange"; rng.Intn(2) == 0 {
					op = "ExtractRange"
					got = tbl.ExtractRange(from, to)
				} else {
					got = tbl.CopyRange(from, to)
				}
				for k := range m {
					if !ringRightIncl(k, from, to) {
						continue
					}
					if want := m.row(k); !reflect.DeepEqual(got[k], want) {
						t.Fatalf("%s(%v, %v)[%v] = %v, model %v", op, from, to, k, got[k], want)
					}
					got[k][0].Freq = -1 // a copy: the table must not see it
					over = append(over, k)
					delete(got, k)
					if op == "ExtractRange" {
						delete(m, k)
					}
				}
				if len(got) != 0 {
					t.Fatalf("%s(%v, %v) returned rows the model does not hold: %v", op, from, to, got)
				}
			case 8:
				op = "Snapshot"
				snap := tbl.Snapshot()
				for k := range m {
					if want := m.row(k); !reflect.DeepEqual(snap[k], want) {
						t.Fatalf("Snapshot()[%v] = %v, model %v", k, snap[k], want)
					}
					snap[k][0].Freq = -1
					over = append(over, k)
				}
				if len(snap) != len(m) {
					t.Fatalf("Snapshot holds %d rows, model %d", len(snap), len(m))
				}
			}
			checkAgainstModel(t, tbl, m, keys, op)
			for k := range before {
				if after := rowKind(tbl, chord.ID(k)); after != before[k] {
					seen[transition{op, before[k], after}] = true
				}
			}
			for _, k := range over {
				seen[transition{op, before[k], before[k]}] = true
			}
		}
	}
	var want []transition
	for _, op := range []string{"Add", "Set", "WriteBatch", "Replace", "Merge"} {
		want = append(want, transition{op, 1, 2})
	}
	for _, op := range []string{"Add", "Set", "WriteBatch", "Replace", "DropNode"} {
		want = append(want, transition{op, 2, 1}, transition{op, 1, 0})
	}
	want = append(want, transition{"ExtractRange", 1, 0}, transition{"ExtractRange", 2, 0})
	for _, op := range []string{"ExtractRange", "CopyRange", "Merge", "Snapshot"} {
		want = append(want, transition{op, 1, 1}, transition{op, 2, 2})
	}
	for _, tr := range want {
		if !seen[tr] {
			t.Errorf("no %s moved a row from kind %d to %d", tr.op, tr.from, tr.to)
		}
	}
}

// TestLocationTableGetIsOneCopy pins the read side of sorted rows: a
// missing key reads as nil, and a row read is one allocation — the copy.
func TestLocationTableGetIsOneCopy(t *testing.T) {
	tbl := NewLocationTable()
	if got := tbl.Get(1); got != nil {
		t.Fatalf("Get of a missing key = %#v, want nil", got)
	}
	for _, node := range modelNodes {
		tbl.Add(1, node, 1)
	}
	if n := testing.AllocsPerRun(100, func() { tbl.Get(1) }); n > 1 {
		t.Errorf("Get allocates %.0f times, want at most 1", n)
	}
}

// TestTableRowChurnAllocatesNothing pins the one-posting layout: a row of
// one posting lives in its map slot, so emptying it and refilling it — a
// retraction and the republication of a sliding window — allocates nothing,
// whether through Add or Set.
func TestTableRowChurnAllocatesNothing(t *testing.T) {
	tbl := NewLocationTable()
	const key = chord.ID(9)
	tbl.Add(key, "n1", 1)
	tbl.Add(key, "n1", -1)
	if n := testing.AllocsPerRun(100, func() {
		tbl.Add(key, "n1", 1)
		tbl.Add(key, "n1", -1)
		tbl.Set(key, "n1", 3)
		tbl.Set(key, "n1", 0)
	}); n != 0 {
		t.Errorf("emptying and refilling a one-posting row allocates %.1f times, want 0", n)
	}
}
