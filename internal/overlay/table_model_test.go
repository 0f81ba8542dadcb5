package overlay

import (
	"math/rand"
	"reflect"
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

// checkAgainstModel holds every row of tbl strictly ascending by Node and
// equal, through Get, to the model's sorted row.
func checkAgainstModel(t *testing.T, tbl *LocationTable, m tableModel, keys int, op string) {
	t.Helper()
	tbl.mu.RLock()
	for key, row := range tbl.rows {
		for i := 1; i < len(row); i++ {
			if row[i-1].Node >= row[i].Node {
				tbl.mu.RUnlock()
				t.Fatalf("after %s: row %v not strictly ascending: %v", op, key, row)
			}
		}
	}
	tbl.mu.RUnlock()
	for k := 0; k < keys; k++ {
		key := chord.ID(k)
		if got, want := tbl.Get(key), m.row(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: Get(%v) = %v, model %v", op, key, got, want)
		}
	}
}

// TestLocationTableMatchesSortOnReadModel runs random sequences of Add,
// Set, Replace (with unsorted rows), Merge, DropNode and ExtractRange
// against a map-plus-sort-on-read model: rows kept sorted on write must
// read exactly as the model's rows sorted on read.
func TestLocationTableMatchesSortOnReadModel(t *testing.T) {
	const keys = 12
	rng := rand.New(rand.NewSource(32))
	for seq := 0; seq < 200; seq++ {
		tbl, m := NewLocationTable(), tableModel{}
		for step := 0; step < 60; step++ {
			key := chord.ID(rng.Intn(keys))
			node := modelNodes[rng.Intn(len(modelNodes))]
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "Add"
				delta := rng.Intn(8) - 3
				tbl.Add(key, node, delta)
				m.add(key, node, delta)
			case 1:
				op = "Set"
				freq := rng.Intn(7) - 1
				tbl.Set(key, node, freq)
				m.set(key, node, freq)
			case 2:
				op = "Replace"
				rows := randomRows(rng, keys, true)
				tbl.Replace(rows)
				for k, row := range rows {
					delete(m, k)
					for _, p := range row {
						m.set(k, p.Node, p.Freq)
					}
				}
			case 3:
				op = "Merge"
				rows := randomRows(rng, keys, false)
				tbl.Merge(rows)
				for k, row := range rows {
					for _, p := range row {
						m.add(k, p.Node, p.Freq)
					}
				}
			case 4:
				op = "DropNode"
				tbl.DropNode(node)
				for k := range m {
					m.set(k, node, 0)
				}
			case 5:
				op = "ExtractRange"
				from, to := chord.ID(rng.Intn(keys)), chord.ID(rng.Intn(keys))
				got := tbl.ExtractRange(from, to)
				for k := range m {
					if !ringRightIncl(k, from, to) {
						continue
					}
					if want := m.row(k); !reflect.DeepEqual(got[k], want) {
						t.Fatalf("ExtractRange(%v, %v)[%v] = %v, model %v", from, to, k, got[k], want)
					}
					delete(got, k)
					delete(m, k)
				}
				if len(got) != 0 {
					t.Fatalf("ExtractRange(%v, %v) returned rows the model does not hold: %v", from, to, got)
				}
			}
			checkAgainstModel(t, tbl, m, keys, op)
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
