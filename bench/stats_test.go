package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4):
// the acceptance procedure computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{2, 8}, 0.5, 9.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTail checks the "highest percentile with at least ten samples beyond
// it" rule at its edges.
func TestTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n + 1) // a permutation of 1..n for n coprime to 7919
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		pct, value float64
	}{
		{100, 100 * 89.0 / 99, 90}, // samples 91..100 lie beyond
		{1000, 100 * 989.0 / 999, 990},
		{23, 100 * 12.0 / 22, 13},
		{22, 50, 11.5}, // too few samples beyond anything above the median
		{5, 50, 3},
	} {
		pct, value := tail(ramp(c.n))
		if math.Abs(pct-c.pct) > 1e-9 || value != c.value {
			t.Errorf("tail of 1..%d = p%v %v, want p%v %v", c.n, pct, value, c.pct, c.value)
		}
	}
}

func TestZipfQuota(t *testing.T) {
	for _, c := range []struct{ n, total int }{{5000, 4000}, {500, 400}, {10, 7}} {
		quota := zipfQuota(c.n, c.total)
		sum := 0
		for r, q := range quota {
			sum += q
			if q < 0 || (r > 0 && q > quota[r-1]+1) {
				t.Errorf("zipfQuota(%d, %d)[%d] = %d breaks the falling curve", c.n, c.total, r, q)
			}
		}
		if sum != c.total {
			t.Errorf("zipfQuota(%d, %d) sums to %d", c.n, c.total, sum)
		}
	}
	// The ranks that can carry ops map one to one onto the persons that
	// may be keys.
	seen := map[int]bool{}
	for r := 0; r < keyPersons(5000); r++ {
		p := rankToPerson(r, 5000)
		if p < 5000/knownShare || p >= 5000 {
			t.Fatalf("rank %d maps to person %d", r, p)
		}
		seen[p] = true
	}
	if len(seen) != keyPersons(5000) {
		t.Errorf("rankToPerson maps onto %d distinct persons", len(seen))
	}
}
