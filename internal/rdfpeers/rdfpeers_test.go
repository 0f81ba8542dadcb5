package rdfpeers

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

const foaf = "http://xmlns.com/foaf/0.1/"

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
func fp(s string) rdf.Term { return rdf.NewIRI(foaf + s) }

func newRing(t *testing.T, n int) (*System, simnet.VTime) {
	t.Helper()
	s := NewSystem(16, simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20})
	now := simnet.VTime(0)
	for i := 0; i < n; i++ {
		_, done, err := s.AddNode(simnet.Addr(fmt.Sprintf("rp-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, s.Converge(now)
}

func sampleTriples() []rdf.Triple {
	return []rdf.Triple{
		{S: ex("alice"), P: fp("name"), O: rdf.NewLiteral("Alice")},
		{S: ex("alice"), P: fp("knows"), O: ex("bob")},
		{S: ex("alice"), P: fp("based_near"), O: ex("paris")},
		{S: ex("bob"), P: fp("name"), O: rdf.NewLiteral("Bob")},
		{S: ex("bob"), P: fp("knows"), O: ex("bob")},
		{S: ex("bob"), P: fp("based_near"), O: ex("paris")},
		{S: ex("carol"), P: fp("based_near"), O: ex("lyon")},
		{S: ex("carol"), P: fp("knows"), O: ex("bob")},
	}
}

func TestStoreReplicatesAtThreePlaces(t *testing.T) {
	s, now := newRing(t, 8)
	tr := sampleTriples()[0]
	now, err := s.Store("rp-00", tr, now)
	if err != nil {
		t.Fatal(err)
	}
	_ = now
	copies := 0
	for _, n := range s.nodes {
		if n.Store.Has(tr) {
			copies++
		}
	}
	// stored at successor(hash s), successor(hash p), successor(hash o):
	// usually 3 distinct nodes, occasionally fewer when keys collide on
	// the same successor
	if copies < 1 || copies > 3 {
		t.Errorf("triple stored at %d nodes, want 1..3", copies)
	}
	if copies < 2 {
		t.Logf("note: keys collapsed onto %d node(s)", copies)
	}
}

func TestQuerySinglePattern(t *testing.T) {
	s, now := newRing(t, 8)
	now, err := s.StoreAll("rp-00", sampleTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// by subject
	sols, now, err := s.QueryPattern("rp-01", rdf.Triple{S: ex("alice"), P: rdf.NewVar("p"), O: rdf.NewVar("o")}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Errorf("subject query returned %d rows, want 3", len(sols))
	}
	// by object
	sols, now, err = s.QueryPattern("rp-02", rdf.Triple{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Errorf("object query returned %d rows, want 3", len(sols))
	}
	// by predicate only
	sols, _, err = s.QueryPattern("rp-03", rdf.Triple{S: rdf.NewVar("s"), P: fp("based_near"), O: rdf.NewVar("o")}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Errorf("predicate query returned %d rows, want 3", len(sols))
	}
}

func TestQueryAllVariableFloods(t *testing.T) {
	s, now := newRing(t, 6)
	now, err := s.StoreAll("rp-00", sampleTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	sols, _, err := s.QueryPattern("rp-00", rdf.Triple{S: rdf.NewVar("s"), P: rdf.NewVar("p"), O: rdf.NewVar("o")}, now)
	if err != nil {
		t.Fatal(err)
	}
	// flood sees the 3x stored copies but deduplicates
	if len(sols) != len(sampleTriples()) {
		t.Errorf("flood returned %d rows, want %d", len(sols), len(sampleTriples()))
	}
}

func TestQueryConjunctive(t *testing.T) {
	s, now := newRing(t, 8)
	now, err := s.StoreAll("rp-00", sampleTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// who is based near paris AND knows bob? → alice, bob
	pats := []rdf.Triple{
		{S: rdf.NewVar("s"), P: fp("based_near"), O: ex("paris")},
		{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")},
	}
	cands, now, err := s.QueryConjunctive("rp-05", "s", pats, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want alice and bob", cands)
	}
	// empty intersection short-circuits
	pats2 := []rdf.Triple{
		{S: rdf.NewVar("s"), P: fp("based_near"), O: ex("lyon")},
		{S: rdf.NewVar("s"), P: fp("knows"), O: ex("nobody")},
	}
	cands, _, err = s.QueryConjunctive("rp-05", "s", pats2, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("candidates = %v, want none", cands)
	}
}

func TestQueryConjunctiveRejectsBadPatterns(t *testing.T) {
	s, now := newRing(t, 4)
	_, _, err := s.QueryConjunctive("rp-00", "s",
		[]rdf.Triple{{S: ex("alice"), P: fp("knows"), O: rdf.NewVar("o")}}, now)
	if err == nil {
		t.Error("expected error for non-subject-variable pattern")
	}
	if _, _, err := s.QueryConjunctive("rp-00", "s", nil, now); err == nil {
		t.Error("expected error for empty conjunction")
	}
}

func TestIngestTrafficShipsFullTriples(t *testing.T) {
	s, now := newRing(t, 8)
	s.Net().ResetMetrics()
	if _, err := s.StoreAll("rp-00", sampleTriples(), now); err != nil {
		t.Fatal(err)
	}
	m := s.Net().Metrics()
	storeBytes := m.PerMethod[MethodStore].Bytes
	var tripleBytes int
	for _, tr := range sampleTriples() {
		tripleBytes += tr.SizeBytes()
	}
	// each triple travels to ~3 places; allow for same-node free self-calls
	if storeBytes < int64(tripleBytes) {
		t.Errorf("store traffic %d < single-copy volume %d", storeBytes, tripleBytes)
	}
}

func TestDuplicateNode(t *testing.T) {
	s, now := newRing(t, 2)
	if _, _, err := s.AddNode("rp-00", now); err == nil {
		t.Error("expected duplicate node error")
	}
}

// TestSameBuildSameCost builds one ring twice over: the join bootstrap is
// a fixed member, not one drawn by map iteration, so every build ends at
// one virtual time after one message count.
func TestSameBuildSameCost(t *testing.T) {
	type cost struct {
		done     simnet.VTime
		messages int64
	}
	outcomes := map[cost]bool{}
	for i := 0; i < 20; i++ {
		s, done := newRing(t, 8)
		outcomes[cost{done, s.Net().Metrics().Messages}] = true
	}
	if len(outcomes) != 1 {
		t.Errorf("20 identical builds of an 8-node ring end in %d distinct (VTime, messages) pairs: %v", len(outcomes), outcomes)
	}
}

// TestFailedJoinLeavesMembershipIntact loses every leg of a ring join:
// the join fails with the loss, and the joiner is neither a member nor
// registered on the fabric, so the ring serves stores and queries as
// before and the same address joins once the loss is gone.
func TestFailedJoinLeavesMembershipIntact(t *testing.T) {
	s, now := newRing(t, 4)
	s.net.SetFaults(&simnet.FaultPlan{LossRate: 1})
	_, now, err := s.AddNode("rp-joiner", now)
	s.net.SetFaults(nil)
	if !errors.Is(err, simnet.ErrMessageLost) {
		t.Fatalf("join with every leg lost: error %v, want a lost message", err)
	}
	if _, ok := s.nodes["rp-joiner"]; ok || len(s.nodes) != 4 {
		t.Errorf("membership after the failed join has %d nodes, joiner kept: %v", len(s.nodes), ok)
	}
	if s.net.Alive("rp-joiner") {
		t.Error("the failed joiner is still registered on the fabric")
	}
	if now, err = s.StoreAll("rp-00", sampleTriples(), now); err != nil {
		t.Fatal(err)
	}
	sols, now, err := s.QueryPattern("rp-01", rdf.Triple{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Errorf("query after the failed join returned %d rows, want 3", len(sols))
	}
	if _, _, err := s.AddNode("rp-joiner", now); err != nil {
		t.Errorf("rejoin after the loss: %v", err)
	}
}

func TestRangeQueryLPH(t *testing.T) {
	s, now := newRing(t, 10)
	if err := s.EnableRangeIndex(0, 100); err != nil {
		t.Fatal(err)
	}
	age := fp("age")
	// ages 10, 20, ..., 90
	for i := 1; i <= 9; i++ {
		tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: age, O: rdf.NewInteger(int64(10 * i))}
		var err error
		now, err = s.Store("rp-00", tr, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, visited, now, err := s.QueryRange("rp-03", age, 25, 55, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 { // 30, 40, 50
		t.Fatalf("range [25,55] returned %d triples, want 3: %v", len(ts), ts)
	}
	for _, tr := range ts {
		v, _ := rdf.NumericValue(tr.O)
		if v < 25 || v > 55 {
			t.Errorf("out-of-range result %v", tr)
		}
	}
	if visited == 0 {
		t.Error("no arc nodes visited")
	}
	// whole range
	ts, _, now, err = s.QueryRange("rp-00", age, 0, 100, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 9 {
		t.Errorf("full range returned %d, want 9", len(ts))
	}
	// empty range region
	ts, _, _, err = s.QueryRange("rp-00", age, 91, 99, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Errorf("empty range returned %v", ts)
	}
}

func TestRangeQueryLocalityOnRing(t *testing.T) {
	// LPH must map ordered values to ordered ring positions
	s, _ := newRing(t, 4)
	if err := s.EnableRangeIndex(0, 1000); err != nil {
		t.Fatal(err)
	}
	prev := chord.ID(0)
	for v := 0.0; v <= 1000; v += 100 {
		id := s.lph(v)
		if id < prev {
			t.Fatalf("LPH not monotone at %g: %v < %v", v, id, prev)
		}
		prev = id
	}
}

func TestRangeQueryErrors(t *testing.T) {
	s, now := newRing(t, 4)
	if _, _, _, err := s.QueryRange("rp-00", fp("age"), 1, 2, now); err == nil {
		t.Error("range query without index should error")
	}
	if err := s.EnableRangeIndex(5, 5); err == nil {
		t.Error("degenerate range accepted")
	}
	if err := s.EnableRangeIndex(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.QueryRange("rp-00", fp("age"), 9, 3, now); err == nil {
		t.Error("inverted range accepted")
	}
}
