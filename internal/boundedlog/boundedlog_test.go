package boundedlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func intLess(a, b *int) bool { return *a < *b }

// The retained set must always equal "sort everything added, keep the
// largest limit" — whatever the insertion order, duplicates included, and
// across SetLimit shrinking, growing and uncapping a live log.
func TestLogMatchesSortAndTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		limit := rng.Intn(12) // 0 = unbounded
		l := New(limit, intLess)
		var all []int
		for i, n := 0, rng.Intn(60); i < n; i++ {
			if rng.Intn(15) == 0 {
				limit = rng.Intn(12)
				l.SetLimit(limit)
				all = truncated(all, limit)
			}
			v := rng.Intn(40)
			l.Add(v)
			all = truncated(append(all, v), limit)
		}
		if got := l.AppendSorted(nil); !reflect.DeepEqual(got, append([]int(nil), all...)) {
			t.Fatalf("round %d (limit %d): retained %v, want %v", round, limit, got, all)
		}
		if l.Len() != len(all) {
			t.Fatalf("round %d: Len=%d, want %d", round, l.Len(), len(all))
		}
	}
}

// truncated sorts vs and keeps the largest limit values (all when ≤ 0).
func truncated(vs []int, limit int) []int {
	sort.Ints(vs)
	if limit > 0 && len(vs) > limit {
		vs = vs[len(vs)-limit:]
	}
	return vs
}

// refHeap is the min-heap the sorted ring replaced, kept as the reference
// model: it retains the limit largest values (all while limit ≤ 0) in no
// particular order.
type refHeap struct {
	limit int
	items []int
}

func (h *refHeap) setLimit(limit int) {
	h.limit = limit
	if limit <= 0 {
		return
	}
	sort.Ints(h.items) // ascending order is a valid min-heap
	if over := len(h.items) - limit; over > 0 {
		h.items = append([]int(nil), h.items[over:]...)
	}
}

func (h *refHeap) add(v int) {
	items := h.items
	switch {
	case h.limit <= 0:
		h.items = append(items, v)
	case len(items) < h.limit:
		items = append(items, v)
		i := len(items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if v >= items[parent] {
				break
			}
			items[i] = items[parent]
			i = parent
		}
		items[i] = v
		h.items = items
	case items[0] < v:
		i, n := 0, len(items)
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if child+1 < n && items[child+1] < items[child] {
				child++
			}
			if items[child] >= v {
				break
			}
			items[i] = items[child]
			i = child
		}
		items[i] = v
	}
}

// refStreams are the arrival orders the ring is checked on: random, nearly
// sorted (a parent recorded after its children, as spans arrive),
// reversed and all-equal.
func refStreams(rng *rand.Rand, n int) [][]int {
	random, nearly, reversed, equal := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i := range random {
		random[i] = rng.Intn(n / 2)
		nearly[i] = i
		reversed[i] = n - i
		equal[i] = 7
	}
	for i := 0; i+4 < n; i += 5 {
		// The parent opened first but closed last: it arrives after the
		// four children it precedes.
		parent := nearly[i]
		copy(nearly[i:i+4], nearly[i+1:i+5])
		nearly[i+4] = parent
	}
	return [][]int{random, nearly, reversed, equal}
}

var refStreamNames = []string{"random", "nearly-sorted", "reversed", "all-equal"}

// The ring retains exactly the heap's multiset on every stream, through
// SetLimit shrinking, growing and uncapping the log mid-stream, and reads
// out in ascending order.
func TestLogMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for s, stream := range refStreams(rng, 200) {
			name, limit := refStreamNames[s], 1+rng.Intn(40)
			l, ref := New(limit, intLess), &refHeap{}
			ref.setLimit(limit)
			for i, v := range stream {
				if i%50 == 49 {
					limit = []int{limit / 2, limit * 2, 0, 1 + rng.Intn(40)}[rng.Intn(4)]
					l.SetLimit(limit)
					ref.setLimit(limit)
				}
				l.Add(v)
				ref.add(v)
				got := l.AppendSorted(nil)
				if !sort.IntsAreSorted(got) {
					t.Fatalf("round %d %s add %d: AppendSorted not ascending: %v", round, name, i, got)
				}
				want := append([]int(nil), ref.items...)
				sort.Ints(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d %s add %d (limit %d): ring %v, heap %v", round, name, i, limit, got, want)
				}
			}
		}
	}
}

// At capacity an Add allocates nothing, whether it appends past the
// maximum, inserts between the extremes or is dropped below the minimum.
func TestAddAllocatesNothingOnceBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		next func(i int) int
	}{
		{"appended", func(i int) int { return 2000 + i }},
		// Every odd value lands one slot before the maximum.
		{"inserted", func(i int) int { return 2000 + 2*i - 3*(i%2) }},
		{"dropped", func(int) int { return -1 }},
	} {
		l := New(64, intLess)
		for i := 0; i < 64; i++ {
			l.Add(1000 + i)
		}
		i := 0
		if allocs := testing.AllocsPerRun(500, func() { l.Add(tc.next(i)); i++ }); allocs != 0 {
			t.Fatalf("%s Add allocates in a full log: %v allocs/op", tc.name, allocs)
		}
	}
}

// BenchmarkAdd times an Add into a full log on in-order and nearly-sorted
// streams of 128-byte values holding strings, shaped like a span.
func BenchmarkAdd(b *testing.B) {
	type value struct {
		key   int64
		names [4]string
		rest  [7]int64
	}
	less := func(a, b *value) bool { return a.key < b.key }
	for _, stream := range []struct {
		name string
		key  func(i int) int64
	}{
		{"in-order", func(i int) int64 { return int64(i) }},
		// Each fifth value is a parent recorded after its four children.
		{"nearly-sorted", func(i int) int64 {
			if i%5 == 4 {
				return int64(i - 4)
			}
			return int64(i + 1)
		}},
	} {
		for _, limit := range []int{128, 4096} {
			b.Run(fmt.Sprintf("%s/limit=%d", stream.name, limit), func(b *testing.B) {
				l := New(limit, less)
				for i := 0; i < limit; i++ {
					l.Add(value{key: stream.key(i - limit)})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Add(value{key: stream.key(i)})
				}
			})
		}
	}
}
