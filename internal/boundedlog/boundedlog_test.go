package boundedlog

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func intLess(a, b int) bool { return a < b }

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
		got := append([]int(nil), l.Items()...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, append([]int(nil), all...)) {
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

func TestAddAllocatesNothingOnceBounded(t *testing.T) {
	l := New(64, intLess)
	i := 0
	if allocs := testing.AllocsPerRun(500, func() { l.Add(i % 97); i++ }); allocs != 0 {
		t.Fatalf("Add allocates in a bounded log: %v allocs/op", allocs)
	}
}
