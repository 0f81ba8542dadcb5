package eval

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"adhocshare/internal/rdf"
)

func term(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }

func bnd(pairs ...string) Binding {
	b := NewBinding()
	for i := 0; i < len(pairs); i += 2 {
		b[pairs[i]] = term(pairs[i+1])
	}
	return b
}

func TestCompatible(t *testing.T) {
	cases := []struct {
		a, b Binding
		want bool
	}{
		{bnd(), bnd(), true},
		{bnd("x", "1"), bnd(), true},
		{bnd("x", "1"), bnd("x", "1"), true},
		{bnd("x", "1"), bnd("x", "2"), false},
		{bnd("x", "1"), bnd("y", "2"), true},
		{bnd("x", "1", "y", "2"), bnd("y", "2", "z", "3"), true},
		{bnd("x", "1", "y", "2"), bnd("y", "9", "z", "3"), false},
	}
	for _, c := range cases {
		if got := c.a.Compatible(c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Compatible(c.a); got != c.want {
			t.Errorf("Compatible is not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestMergeAndClone(t *testing.T) {
	a := bnd("x", "1")
	b := bnd("y", "2")
	m := a.Merge(b)
	if len(m) != 2 || m["x"] != term("1") || m["y"] != term("2") {
		t.Errorf("merge = %v", m)
	}
	c := a.Clone()
	c["x"] = term("9")
	if a["x"] != term("1") {
		t.Error("Clone aliases the original")
	}
}

func TestBindingKeyAndEqual(t *testing.T) {
	a := bnd("x", "1", "y", "2")
	b := bnd("y", "2", "x", "1")
	if a.Key() != b.Key() {
		t.Error("Key must be order-insensitive")
	}
	if !a.Equal(b) {
		t.Error("Equal must be order-insensitive")
	}
	c := bnd("x", "1")
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("different bindings compared equal")
	}
}

func TestBindingProject(t *testing.T) {
	a := bnd("x", "1", "y", "2", "z", "3")
	p := a.Project([]string{"x", "z", "missing"})
	if len(p) != 2 || p["x"] != term("1") || p["z"] != term("3") {
		t.Errorf("project = %v", p)
	}
}

func TestJoinBasic(t *testing.T) {
	// Ω1 ⋈ Ω2 with shared variable y.
	o1 := Solutions{bnd("x", "a", "y", "1"), bnd("x", "b", "y", "2")}
	o2 := Solutions{bnd("y", "1", "z", "p"), bnd("y", "1", "z", "q"), bnd("y", "3", "z", "r")}
	j := Join(o1, o2)
	if len(j) != 2 {
		t.Fatalf("join size = %d, want 2", len(j))
	}
	for _, m := range j {
		if m["x"] != term("a") || m["y"] != term("1") {
			t.Errorf("unexpected join row %v", m)
		}
	}
}

func TestJoinCrossProduct(t *testing.T) {
	o1 := Solutions{bnd("x", "a"), bnd("x", "b")}
	o2 := Solutions{bnd("y", "1"), bnd("y", "2"), bnd("y", "3")}
	j := Join(o1, o2)
	if len(j) != 6 {
		t.Errorf("disjoint join size = %d, want 6", len(j))
	}
}

func TestJoinWithUnboundSharedVar(t *testing.T) {
	// One Ω2 mapping leaves the shared variable unbound: it is compatible
	// with everything (arises from OPTIONAL results).
	o1 := Solutions{bnd("x", "a", "y", "1")}
	o2 := Solutions{bnd("y", "1"), bnd("z", "w")} // second binds only z
	j := Join(o1, o2)
	if len(j) != 2 {
		t.Fatalf("join size = %d, want 2", len(j))
	}
}

func TestJoinEmpty(t *testing.T) {
	if got := Join(nil, Solutions{bnd("x", "1")}); got != nil {
		t.Errorf("join with empty = %v", got)
	}
	if got := Join(Solutions{bnd("x", "1")}, nil); got != nil {
		t.Errorf("join with empty = %v", got)
	}
}

func TestLeftJoinSemantics(t *testing.T) {
	// (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2)
	o1 := Solutions{bnd("x", "a", "y", "1"), bnd("x", "b", "y", "2")}
	o2 := Solutions{bnd("y", "1", "z", "n")}
	lj := LeftJoinFilter(o1, o2, nil)
	if len(lj) != 2 {
		t.Fatalf("leftjoin size = %d, want 2", len(lj))
	}
	var joined, kept int
	for _, m := range lj {
		if m.Bound("z") {
			joined++
		} else {
			kept++
		}
	}
	if joined != 1 || kept != 1 {
		t.Errorf("joined=%d kept=%d", joined, kept)
	}
}

func TestDistinctReduced(t *testing.T) {
	s := Solutions{bnd("x", "1"), bnd("x", "1"), bnd("x", "2"), bnd("x", "1")}
	d := Distinct(s)
	if len(d) != 2 {
		t.Errorf("distinct = %v", d)
	}
	r := Reduced(s)
	if len(r) != 3 { // only adjacent duplicates removed
		t.Errorf("reduced size = %d, want 3", len(r))
	}
}

func TestSlice(t *testing.T) {
	s := Solutions{bnd("x", "1"), bnd("x", "2"), bnd("x", "3"), bnd("x", "4")}
	cases := []struct {
		off, lim, want int
	}{
		{-1, -1, 4},
		{1, -1, 3},
		{-1, 2, 2},
		{1, 2, 2},
		{3, 5, 1},
		{9, -1, 0},
		{-1, 0, 0},
	}
	for _, c := range cases {
		got := Slice(s, c.off, c.lim)
		if len(got) != c.want {
			t.Errorf("Slice(off=%d,lim=%d) = %d rows, want %d", c.off, c.lim, len(got), c.want)
		}
	}
}

func TestSolutionsSizeBytes(t *testing.T) {
	s := Solutions{bnd("x", "1"), bnd("x", "22")}
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
	if (Solutions{}).SizeBytes() <= 0 {
		t.Error("empty multiset still has framing overhead")
	}
	if s.SizeBytes() <= (Solutions{bnd("x", "1")}).SizeBytes() {
		t.Error("more rows must cost more bytes")
	}
}

// Property: join is commutative up to multiset equality on these inputs.
func TestJoinCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Solutions {
			var s Solutions
			for i := 0; i < rng.Intn(6); i++ {
				b := NewBinding()
				if rng.Intn(2) == 0 {
					b["x"] = term(fmt.Sprint(rng.Intn(3)))
				}
				if rng.Intn(2) == 0 {
					b["y"] = term(fmt.Sprint(rng.Intn(3)))
				}
				s = append(s, b)
			}
			return s
		}
		a, b := mk(), mk()
		ab, ba := Join(a, b), Join(b, a)
		return multisetEqual(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: union is associative.
func TestUnionIsAssociative(t *testing.T) {
	a := Solutions{bnd("x", "1"), bnd("x", "2")}
	b := Solutions{bnd("x", "2"), bnd("y", "3")}
	c := Solutions{bnd("z", "4")}
	l := Union(Union(a, b), c)
	r := Union(a, Union(b, c))
	if !multisetEqual(l, r) {
		t.Error("union not associative")
	}
}

func multisetEqual(a, b Solutions) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, m := range a {
		count[m.Key()]++
	}
	for _, m := range b {
		count[m.Key()]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
