package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://example.org/" + s) }

// freeIDs is every released ID of g, whatever list frees it.
func freeIDs(g *Graph) []uint32 { return slices.Concat(g.free[:]...) }

func testTriples() []Triple {
	return []Triple{
		{iri("alice"), iri("knows"), iri("bob")},
		{iri("alice"), iri("knows"), iri("carol")},
		{iri("alice"), iri("name"), NewLiteral("Alice")},
		{iri("bob"), iri("knows"), iri("carol")},
		{iri("bob"), iri("name"), NewLiteral("Bob")},
		{iri("carol"), iri("age"), NewInteger(30)},
	}
}

func TestGraphAddHasRemove(t *testing.T) {
	g := NewGraph()
	ts := testTriples()
	for _, tr := range ts {
		if !g.Add(tr) {
			t.Errorf("Add(%v) returned false on first insert", tr)
		}
	}
	if g.Size() != len(ts) {
		t.Fatalf("Size = %d, want %d", g.Size(), len(ts))
	}
	// duplicate insert
	if g.Add(ts[0]) {
		t.Error("duplicate Add returned true")
	}
	if g.Size() != len(ts) {
		t.Error("duplicate Add changed size")
	}
	for _, tr := range ts {
		if !g.Has(tr) {
			t.Errorf("Has(%v) = false", tr)
		}
	}
	if g.Has(Triple{iri("nobody"), iri("knows"), iri("alice")}) {
		t.Error("Has reported absent triple")
	}
	if !g.Remove(ts[0]) {
		t.Error("Remove existing returned false")
	}
	if g.Remove(ts[0]) {
		t.Error("Remove absent returned true")
	}
	if g.Has(ts[0]) {
		t.Error("removed triple still present")
	}
	if g.Size() != len(ts)-1 {
		t.Errorf("Size after remove = %d, want %d", g.Size(), len(ts)-1)
	}
}

func TestGraphRejectsPatterns(t *testing.T) {
	g := NewGraph()
	if g.Add(Triple{NewVar("x"), iri("p"), iri("o")}) {
		t.Error("Add accepted a pattern")
	}
	if g.Size() != 0 {
		t.Error("pattern insert changed size")
	}
}

func TestGraphMatchAllMasks(t *testing.T) {
	g := NewGraph()
	g.AddAll(testTriples())
	v := NewVar("v")
	w := NewVar("w")
	u := NewVar("u")
	cases := []struct {
		pat  Triple
		want int
	}{
		{Triple{iri("alice"), iri("knows"), iri("bob")}, 1},   // spo
		{Triple{iri("alice"), iri("knows"), v}, 2},            // sp
		{Triple{v, iri("knows"), iri("carol")}, 2},            // po
		{Triple{iri("alice"), v, NewLiteral("Alice")}, 1},     // so
		{Triple{iri("alice"), v, w}, 3},                       // s
		{Triple{v, iri("knows"), w}, 3},                       // p
		{Triple{v, w, iri("carol")}, 2},                       // o
		{Triple{u, v, w}, 6},                                  // none
		{Triple{iri("zed"), v, w}, 0},                         // absent subject
		{Triple{iri("alice"), iri("knows"), iri("alice")}, 0}, // absent triple
	}
	for _, c := range cases {
		got := g.Match(c.pat)
		if len(got) != c.want {
			t.Errorf("Match(%v) returned %d results, want %d", c.pat, len(got), c.want)
		}
		if n := g.CountMatch(c.pat); n != c.want {
			t.Errorf("CountMatch(%v) = %d, want %d", c.pat, n, c.want)
		}
		for _, m := range got {
			if !g.Has(m) {
				t.Errorf("Match returned triple not in graph: %v", m)
			}
		}
	}
}

func TestGraphForEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	g.AddAll(testTriples())
	n := 0
	g.ForEachMatch(Triple{NewVar("s"), NewVar("p"), NewVar("o")}, func(Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestGraphTriplesSnapshot(t *testing.T) {
	g := NewGraph()
	ts := testTriples()
	g.AddAll(ts)
	snap := g.Triples()
	if len(snap) != len(ts) {
		t.Fatalf("Triples() length = %d, want %d", len(snap), len(ts))
	}
	seen := map[Triple]bool{}
	for _, tr := range snap {
		seen[tr] = true
	}
	for _, tr := range ts {
		if !seen[tr] {
			t.Errorf("snapshot missing %v", tr)
		}
	}
}

func TestGraphSubjectsPredicates(t *testing.T) {
	g := NewGraph()
	g.AddAll(testTriples())
	if got := len(g.Subjects()); got != 3 {
		t.Errorf("Subjects count = %d, want 3", got)
	}
	if got := len(g.Predicates()); got != 3 {
		t.Errorf("Predicates count = %d, want 3", got)
	}
}

func TestGraphClone(t *testing.T) {
	g := NewGraph()
	g.AddAll(testTriples())
	c := g.Clone()
	if c.Size() != g.Size() {
		t.Fatal("clone size mismatch")
	}
	c.Add(Triple{iri("dave"), iri("name"), NewLiteral("Dave")})
	if g.Size() == c.Size() {
		t.Error("mutating clone affected original")
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := Triple{iri(fmt.Sprintf("s%d", w)), iri("p"), NewInteger(int64(i))}
				g.Add(tr)
				g.Has(tr)
				g.Match(Triple{NewVar("s"), iri("p"), NewVar("o")})
			}
		}(w)
	}
	wg.Wait()
	if g.Size() != 8*200 {
		t.Errorf("Size = %d, want %d", g.Size(), 8*200)
	}
}

// Property: for any set of concrete triples, every triple added is matched
// by the fully-variable pattern exactly once, and removal is exact inverse.
func TestGraphAddRemoveInverseProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var ts []Triple
		for i := 0; i < int(n%32)+1; i++ {
			tr := Triple{
				iri(fmt.Sprintf("s%d", rng.Intn(8))),
				iri(fmt.Sprintf("p%d", rng.Intn(4))),
				NewInteger(int64(rng.Intn(16))),
			}
			ts = append(ts, tr)
		}
		added := 0
		for _, tr := range ts {
			if g.Add(tr) {
				added++
			}
		}
		if g.Size() != added {
			return false
		}
		if g.CountMatch(Triple{NewVar("s"), NewVar("p"), NewVar("o")}) != added {
			return false
		}
		for _, tr := range ts {
			g.Remove(tr)
		}
		return g.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: index consistency — Match by any mask agrees with a filter over
// the full snapshot.
func TestGraphIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for i := 0; i < 60; i++ {
			g.Add(Triple{
				iri(fmt.Sprintf("s%d", rng.Intn(6))),
				iri(fmt.Sprintf("p%d", rng.Intn(3))),
				iri(fmt.Sprintf("o%d", rng.Intn(6))),
			})
		}
		all := g.Triples()
		pats := []Triple{
			{iri("s1"), iri("p1"), NewVar("o")},
			{NewVar("s"), iri("p2"), iri("o3")},
			{iri("s0"), NewVar("p"), iri("o0")},
			{iri("s2"), NewVar("p"), NewVar("o")},
			{NewVar("s"), iri("p0"), NewVar("o")},
			{NewVar("s"), NewVar("p"), iri("o5")},
		}
		for _, pat := range pats {
			want := 0
			for _, tr := range all {
				if matches(pat, tr) {
					want++
				}
			}
			if g.CountMatch(pat) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func matches(pat, tr Triple) bool {
	ok := func(p, v Term) bool { return p.IsVar() || p == v }
	return ok(pat.S, tr.S) && ok(pat.P, tr.P) && ok(pat.O, tr.O)
}

func TestSortTriplesDeterministic(t *testing.T) {
	ts := testTriples()
	rand.New(rand.NewSource(1)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	SortTriples(ts)
	for i := 1; i < len(ts); i++ {
		if Compare(ts[i-1].S, ts[i].S) > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, ts[i-1], ts[i])
		}
	}
}

// modelPool is the term pool of the reference-model tests: one term of
// every concrete kind, all sharing one Value, so a dictionary that keyed on
// less than the whole Term would conflate them.
var modelPool = []Term{
	NewIRI("v"), NewBlank("v"), NewLiteral("v"), NewLangLiteral("v", "en"), NewTypedLiteral("v", XSDString),
}

// modelTriple decodes n into a triple over modelPool; every position takes
// every pool term (the store does not police RDF's position rules).
func modelTriple(n int) Triple {
	k := len(modelPool)
	return Triple{modelPool[n%k], modelPool[n/k%k], modelPool[n/k/k%k]}
}

// modelStep applies one op to the graph and to the map[Triple]bool
// reference — a removal when remove is set, else an add — and requires the
// graph to report what the reference says: duplicate adds and removals of
// absent triples return false and change nothing.
func modelStep(t *testing.T, g *Graph, ref map[Triple]bool, tr Triple, remove bool) {
	t.Helper()
	if remove {
		if got := g.Remove(tr); got != ref[tr] {
			t.Fatalf("Remove(%v) = %v, reference holds it: %v", tr, got, ref[tr])
		}
		delete(ref, tr)
	} else {
		if got := g.Add(tr); got == ref[tr] {
			t.Fatalf("Add(%v) = %v, reference holds it: %v", tr, got, ref[tr])
		}
		ref[tr] = true
	}
}

// checkModel holds Size, Has and — for every pattern over the pool plus a
// variable, which covers all eight bound masks — Match, CountMatch and an
// early-stopped ForEachMatch to the reference.
func checkModel(t *testing.T, g *Graph, ref map[Triple]bool) {
	t.Helper()
	if g.Size() != len(ref) {
		t.Fatalf("Size = %d, reference holds %d", g.Size(), len(ref))
	}
	k := len(modelPool)
	for n := 0; n < k*k*k; n++ {
		if tr := modelTriple(n); g.Has(tr) != ref[tr] {
			t.Fatalf("Has(%v) = %v, reference: %v", tr, g.Has(tr), ref[tr])
		}
	}
	slots := append([]Term{NewVar("x")}, modelPool...)
	for _, s := range slots {
		for _, p := range slots {
			for _, o := range slots {
				pat := Triple{s, p, o}
				want := 0
				for tr := range ref {
					if matches(pat, tr) {
						want++
					}
				}
				got := g.Match(pat)
				seen := map[Triple]bool{}
				for _, tr := range got {
					if !ref[tr] || !matches(pat, tr) || seen[tr] {
						t.Fatalf("Match(%v) returned %v: stored %v, matching %v, repeated %v", pat, tr, ref[tr], matches(pat, tr), seen[tr])
					}
					seen[tr] = true
				}
				if len(got) != want || g.CountMatch(pat) != want {
					t.Fatalf("Match(%v) returned %d, CountMatch %d, reference %d", pat, len(got), g.CountMatch(pat), want)
				}
				stop, visited := (want+1)/2, 0
				g.ForEachMatch(pat, func(Triple) bool {
					visited++
					return visited < stop
				})
				if visited != stop {
					t.Fatalf("ForEachMatch(%v) stopped at %d visited %d of %d", pat, stop, visited, want)
				}
			}
		}
	}
}

// TestGraphAgainstReferenceModel drives seeded random add / remove
// sequences — the small pool makes duplicate adds and removals of absent
// triples as common as effective ones — and checks the whole read API
// against the reference after every step. One step in ten is a churn:
// every stored triple naming one pool term is removed, which drains the
// term's lists and releases its ID, and then re-added in reverse order, so
// re-interned terms take released IDs whose lists kept their arrays.
func TestGraphAgainstReferenceModel(t *testing.T) {
	k := len(modelPool)
	refilled := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := NewGraph(), map[Triple]bool{}
		for step := 0; step < 150; step++ {
			if rng.Intn(10) == 0 {
				refilled += modelChurn(t, g, ref, modelPool[rng.Intn(k)])
				continue
			}
			// Removals dominate every third stretch so the graph also drains.
			remove := rng.Intn(3) < 1+step/50%2
			modelStep(t, g, ref, modelTriple(rng.Intn(k*k*k)), remove)
			checkModel(t, g, ref)
		}
	}
	if refilled == 0 {
		t.Error("no churn refilled a drained list under a re-used ID")
	}
}

// modelChurn removes every stored triple naming x and re-adds them in
// reverse order, checking the model after each step. It returns how many
// lists that were drained, under an ID released by the removals, the
// re-adds refilled.
func modelChurn(t *testing.T, g *Graph, ref map[Triple]bool, x Term) int {
	t.Helper()
	k := len(modelPool)
	var named []Triple
	for n := 0; n < k*k*k; n++ {
		if tr := modelTriple(n); ref[tr] && (tr.S == x || tr.P == x || tr.O == x) {
			named = append(named, tr)
		}
	}
	wasFree := freeIDs(g)
	for _, tr := range named {
		modelStep(t, g, ref, tr, true)
		checkModel(t, g, ref)
	}
	var drained [][2]int // (order, ID) of each emptied list with an array
	for _, id := range freeIDs(g) {
		if slices.Contains(wasFree, id) {
			continue
		}
		for ix := range g.lists {
			if l := g.lists[ix][id]; len(l) == 0 && cap(l) > 0 {
				drained = append(drained, [2]int{ix, int(id)})
			}
		}
	}
	for i := len(named) - 1; i >= 0; i-- {
		modelStep(t, g, ref, named[i], false)
		checkModel(t, g, ref)
	}
	refilled := 0
	for _, d := range drained {
		if len(g.lists[d[0]][d[1]]) > 0 {
			refilled++
		}
	}
	return refilled
}

// orderEdits is a seeded add/remove sequence over a pool large enough that
// every list holds several entries and IDs are released and reused.
func orderEdits(g *Graph) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		tr := Triple{iri(fmt.Sprintf("s%d", rng.Intn(8))), iri(fmt.Sprintf("p%d", rng.Intn(3))), NewInteger(int64(rng.Intn(8)))}
		if rng.Intn(3) == 0 {
			g.Remove(tr)
		} else {
			g.Add(tr)
		}
	}
}

// TestGraphMatchOrderIsAFunctionOfEditHistory pins the order contract: two
// graphs built by the same edit sequence stream identical sequences for all
// eight masks and from Triples, Subjects and Predicates, and repeated calls
// on one graph agree. (The nested-map store this replaced failed both
// halves: Go randomises map iteration per call.)
func TestGraphMatchOrderIsAFunctionOfEditHistory(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	orderEdits(a)
	orderEdits(b)
	if a.Size() < 40 {
		t.Fatalf("edit sequence left %d triples, want a graph worth ordering", a.Size())
	}
	s, p, o, v := iri("s3"), iri("p1"), NewInteger(5), NewVar("v")
	reads := map[string]func(*Graph) any{
		"Triples":    func(g *Graph) any { return g.Triples() },
		"Subjects":   func(g *Graph) any { return g.Subjects() },
		"Predicates": func(g *Graph) any { return g.Predicates() },
	}
	for _, pat := range []Triple{{s, p, o}, {s, p, v}, {v, p, o}, {s, v, o}, {s, v, v}, {v, p, v}, {v, v, o}, {v, v, v}} {
		pat := pat
		reads["Match "+pat.Mask().String()] = func(g *Graph) any { return g.Match(pat) }
	}
	for name, read := range reads {
		first := read(a)
		if again := read(a); !reflect.DeepEqual(first, again) {
			t.Errorf("%s: two calls on one unchanged graph differ", name)
		}
		if other := read(b); !reflect.DeepEqual(first, other) {
			t.Errorf("%s: two graphs with the same edit history differ", name)
		}
	}
}

// TestGraphDictionaryDrains removes everything that was added, in another
// order, and requires the dictionary to drain with the triples: no term is
// left interned, every ID is free, the next add reuses one, and a pattern
// naming a term the graph no longer knows matches nothing.
func TestGraphDictionaryDrains(t *testing.T) {
	g := NewGraph()
	var ts []Triple
	for i := 0; i < 500; i++ {
		ts = append(ts, Triple{iri(fmt.Sprintf("s%d", i%50)), iri(fmt.Sprintf("p%d", i%7)), NewInteger(int64(i))})
	}
	if g.AddAll(ts) != len(ts) {
		t.Fatal("AddAll did not add every triple")
	}
	slots := len(g.terms)
	rand.New(rand.NewSource(3)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	for _, tr := range ts {
		if !g.Remove(tr) {
			t.Fatalf("Remove(%v) = false", tr)
		}
	}
	if g.Size() != 0 || len(g.Triples()) != 0 || len(g.Subjects()) != 0 || len(g.Predicates()) != 0 {
		t.Errorf("drained graph still reports content: size %d", g.Size())
	}
	if len(g.ids) != 0 || len(freeIDs(g)) != slots {
		t.Errorf("drained dictionary holds %d terms and %d of %d IDs are free", len(g.ids), len(freeIDs(g)), slots)
	}
	for id, term := range g.terms {
		if !term.IsZero() || g.refs[id] != 0 || len(g.lists[spo][id]) != 0 || len(g.lists[pos][id]) != 0 || len(g.lists[osp][id]) != 0 {
			t.Fatalf("released ID %d still holds %v, %d refs or a list", id, term, g.refs[id])
		}
	}
	for _, pat := range []Triple{{ts[0].S, NewVar("p"), NewVar("o")}, {NewVar("s"), ts[0].P, ts[0].O}, ts[0]} {
		if got := g.Match(pat); got != nil || g.CountMatch(pat) != 0 {
			t.Errorf("Match(%v) on a drained graph = %v", pat, got)
		}
	}
	if !g.Add(ts[0]) || len(g.terms) != slots || len(freeIDs(g)) != slots-3 {
		t.Errorf("add after drain: %d ID slots (had %d), %d free", len(g.terms), slots, len(freeIDs(g)))
	}
}

// TestGraphHeapPerTriple holds the store to ROADMAP's 400 B per triple on
// a FOAF-shaped graph (the nested Term-keyed maps cost about 1,580 B, the
// dictionary and sorted ID lists about 110 B). The triples stay alive in
// the test, so the strings they share with the graph are not counted.
func TestGraphHeapPerTriple(t *testing.T) {
	var ts []Triple
	person := func(i int) Term { return iri(fmt.Sprintf("person/%d", i)) }
	for i := 0; i < 2500; i++ {
		ts = append(ts,
			Triple{person(i), iri("type"), iri("Person")},
			Triple{person(i), iri("name"), NewLiteral(fmt.Sprintf("Person %d", i))},
			Triple{person(i), iri("age"), NewInteger(int64(18 + i%60))})
		for k := 1; k <= 6; k++ {
			ts = append(ts, Triple{person(i), iri("knows"), person((i + k*k*37) % 2500)})
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	g := NewGraph()
	if g.AddAll(ts) != len(ts) {
		t.Fatal("synthetic triples are not distinct")
	}
	perTriple := float64(int64(heap()-before)) / float64(len(ts))
	runtime.KeepAlive(g)
	runtime.KeepAlive(ts)
	t.Logf("%d triples, %.1f heap bytes per triple", len(ts), perTriple)
	if perTriple > 400 {
		t.Errorf("graph holds %.1f heap bytes per triple, want <= 400", perTriple)
	}
}

// TestGraphChurnAllocatesNothing is the graph's allocation budget: once a
// batch of 100 triples has been added, removed and re-added, removing and
// re-adding it again allocates nothing — a drained list keeps its array
// and a re-interned term takes a released ID with its lists. That holds
// when the terms come back in another order than they left, alternating
// between two: a subject then takes a released subject's ID, whose (p,o)
// array holds its entries, and an object an object's.
func TestGraphChurnAllocatesNothing(t *testing.T) {
	var ts []Triple
	for i := 0; i < 100; i++ {
		ts = append(ts, Triple{iri(fmt.Sprintf("s%d", i%20)), iri(fmt.Sprintf("p%d", i%4)), NewInteger(int64(i))})
	}
	shuffled := slices.Clone(ts)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reversed := slices.Clone(ts)
	slices.Reverse(reversed)
	for _, tc := range []struct {
		name  string
		order [2][]Triple // the add orders of alternate re-adds
	}{
		{"same order", [2][]Triple{ts, ts}},
		{"another order", [2][]Triple{shuffled, reversed}},
	} {
		g := NewGraph()
		n := 0
		churn := func() {
			for _, tr := range ts {
				g.Remove(tr)
			}
			g.AddAll(tc.order[n%2])
			n++
		}
		g.AddAll(ts)
		churn()
		churn()
		if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
			t.Errorf("%s: removing and re-adding %d triples allocates %.1f objects, want 0", tc.name, len(ts), allocs)
		}
		if g.Size() != len(ts) {
			t.Fatalf("%s: graph holds %d triples after churn, want %d", tc.name, g.Size(), len(ts))
		}
	}
}
