package overlay

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

const foaf = "http://xmlns.com/foaf/0.1/"

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
func fp(s string) rdf.Term { return rdf.NewIRI(foaf + s) }

func newTestSystem(t *testing.T, nIndex int) (*System, simnet.VTime) {
	t.Helper()
	s := NewSystem(Config{Bits: 16, Replication: 2,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < nIndex; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	return s, now
}

func aliceTriples() []rdf.Triple {
	return []rdf.Triple{
		{S: ex("alice"), P: fp("name"), O: rdf.NewLiteral("Alice Smith")},
		{S: ex("alice"), P: fp("knows"), O: ex("bob")},
		{S: ex("alice"), P: fp("knows"), O: ex("carol")},
	}
}

func TestTripleKeysDistinctDomains(t *testing.T) {
	tr := rdf.Triple{S: ex("a"), P: fp("knows"), O: ex("a")}
	keys := TripleKeys(tr, 32)
	// subject and object have the same term but different key domains
	if keys[KeyS] == keys[KeyO] {
		t.Error("⟨s⟩ and ⟨o⟩ keys must not collide for the same term")
	}
	// all six keys are produced
	seen := map[chord.ID]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if len(seen) < 5 { // allow a freak collision but not systematic overlap
		t.Errorf("expected mostly distinct keys, got %v", keys)
	}
}

func TestPatternKeySelection(t *testing.T) {
	v := rdf.NewVar
	s, p, o := ex("s"), fp("p"), rdf.NewLiteral("o")
	cases := []struct {
		pat  rdf.Triple
		kind KeyKind
		ok   bool
	}{
		{rdf.Triple{S: s, P: p, O: o}, KeySP, true},
		{rdf.Triple{S: s, P: p, O: v("o")}, KeySP, true},
		{rdf.Triple{S: v("s"), P: p, O: o}, KeyPO, true},
		{rdf.Triple{S: s, P: v("p"), O: o}, KeySO, true},
		{rdf.Triple{S: s, P: v("p"), O: v("o")}, KeyS, true},
		{rdf.Triple{S: v("s"), P: p, O: v("o")}, KeyP, true},
		{rdf.Triple{S: v("s"), P: v("p"), O: o}, KeyO, true},
		{rdf.Triple{S: v("s"), P: v("p"), O: v("o")}, 0, false},
	}
	for _, c := range cases {
		_, kind, ok := PatternKey(c.pat, 16)
		if ok != c.ok || (ok && kind != c.kind) {
			t.Errorf("PatternKey(%v) = %v,%v want %v,%v", c.pat, kind, ok, c.kind, c.ok)
		}
	}
	// pattern key must equal the matching triple key
	pat := rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: ex("bob")}
	key, _, _ := PatternKey(pat, 16)
	tr := rdf.Triple{S: ex("alice"), P: fp("knows"), O: ex("bob")}
	if key != TripleKeys(tr, 16)[KeyPO] {
		t.Error("pattern ⟨p,o⟩ key must match the triple's ⟨p,o⟩ key")
	}
}

func TestLocationTableBasics(t *testing.T) {
	lt := NewLocationTable()
	lt.Add(5, "D1", 15)
	lt.Add(5, "D3", 10)
	lt.Add(7, "D1", 30)
	if lt.Len() != 2 || lt.Postings() != 3 {
		t.Fatalf("len=%d postings=%d", lt.Len(), lt.Postings())
	}
	row := lt.Get(5)
	if len(row) != 2 || row[0].Node != "D1" || row[0].Freq != 15 {
		t.Errorf("row = %v", row)
	}
	lt.Add(5, "D1", 5)
	if lt.Get(5)[0].Freq != 20 {
		t.Error("frequency increment failed")
	}
	lt.Add(5, "D1", -20)
	if len(lt.Get(5)) != 1 {
		t.Error("zero-frequency posting not removed")
	}
	if n := lt.DropNode("D3"); n != 1 {
		t.Errorf("DropNode touched %d rows, want 1", n)
	}
	if lt.Len() != 1 {
		t.Errorf("len after drop = %d", lt.Len())
	}
}

func TestLocationTableExtractRange(t *testing.T) {
	lt := NewLocationTable()
	for _, k := range []chord.ID{1, 5, 9, 13} {
		lt.Add(k, "D", 1)
	}
	got := lt.ExtractRange(4, 10) // (4,10] → 5, 9
	if len(got) != 2 {
		t.Fatalf("extracted %d rows, want 2", len(got))
	}
	if lt.Len() != 2 {
		t.Errorf("remaining rows = %d, want 2", lt.Len())
	}
	// wraparound (12, 2] → 13, 1
	lt2 := NewLocationTable()
	for _, k := range []chord.ID{1, 5, 13} {
		lt2.Add(k, "D", 1)
	}
	got = lt2.ExtractRange(12, 2)
	if len(got) != 2 {
		t.Errorf("wraparound extracted %d rows, want 2", len(got))
	}
	// CopyRange returns the same rows and keeps them: (4,10] → 5
	got = lt2.CopyRange(4, 10)
	if len(got) != 1 || lt2.Len() != 1 {
		t.Errorf("copied %d rows leaving %d, want 1 and 1", len(got), lt2.Len())
	}
	got[5][0].Freq = 7
	if lt2.Get(5)[0].Freq != 1 {
		t.Error("a copied row aliases the table's row")
	}
}

// postingDigest reads node's frequency in key's row and the row's digest
// the way put_batch does, through a batch that writes nothing.
func postingDigest(lt *LocationTable, key chord.ID, node simnet.Addr) (int, uint32) {
	e := []DeltaEntry{{Key: key}}
	lt.WriteBatch(node, e, BatchRead)
	return e[0].Freq, e[0].Digest
}

func TestRowDigest(t *testing.T) {
	lt := NewLocationTable()
	_, empty := postingDigest(lt, 3, "D1")
	lt.Add(3, "D1", 2)
	_, single := postingDigest(lt, 3, "D1")
	lt.Add(3, "D2", 1)
	freq, d := postingDigest(lt, 3, "D1")
	if freq != 2 {
		t.Errorf("D1's frequency = %d, want 2", freq)
	}
	if single == empty || single == d {
		t.Errorf("one-posting row digest %x collides with the empty row's %x or the two-posting row's %x", single, empty, d)
	}
	// Same postings written in another order: same digest.
	other := NewLocationTable()
	other.Set(3, "D2", 1)
	other.Set(3, "D1", 2)
	if _, od := postingDigest(other, 3, "D9"); od != d {
		t.Errorf("digest depends on write order: %x vs %x", od, d)
	}
	other.Set(3, "D2", 2)
	if _, od := postingDigest(other, 3, "D1"); od == d {
		t.Error("a changed frequency kept the digest")
	}
	lt.Set(3, "D2", 0)
	if _, sd := postingDigest(lt, 3, "D1"); sd != single {
		t.Errorf("row shrunk to one posting digests %x, want %x as written once", sd, single)
	}
	lt.Set(3, "D1", 0)
	if freq, d := postingDigest(lt, 3, "D1"); freq != 0 || d != empty {
		t.Errorf("removed row reads freq %d digest %x, want 0 and the empty row's %x", freq, d, empty)
	}
}

func TestPublishInstallsSixKeysPerTriple(t *testing.T) {
	s, now := newTestSystem(t, 4)
	st, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	tr := rdf.Triple{S: ex("alice"), P: fp("knows"), O: ex("bob")}
	now, err = s.Publish("D1", []rdf.Triple{tr}, now)
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph.Size() != 1 {
		t.Error("triple not stored locally")
	}
	// every one of the six keys must resolve to a posting for D1
	for kind, key := range TripleKeys(tr, s.Config().Bits) {
		owner, _, done, err := s.ResolveKey("D1", key, now)
		now = done
		if err != nil {
			t.Fatal(err)
		}
		idx, ok := s.Index(owner)
		if !ok {
			t.Fatalf("owner %s is not an index node", owner)
		}
		row := idx.Table.Get(key)
		found := false
		for _, p := range row {
			if p.Node == "D1" && p.Freq == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("key kind %v: posting missing at %s (row %v)", KeyKind(kind), owner, row)
		}
	}
}

func TestPublishFrequencyCounts(t *testing.T) {
	// Table I semantics: frequency = number of triples sharing the hash
	// value of the attribute combination.
	s, now := newTestSystem(t, 4)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// ⟨s⟩ = alice appears in 3 triples
	keyS := TripleKeys(aliceTriples()[0], s.Config().Bits)[KeyS]
	owner, _, now, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Index(owner)
	row := idx.Table.Get(keyS)
	if len(row) != 1 || row[0].Freq != 3 {
		t.Errorf("⟨alice⟩ row = %v, want freq 3", row)
	}
	// ⟨s,p⟩ = (alice, knows) appears in 2 triples
	keySP := TripleKeys(aliceTriples()[1], s.Config().Bits)[KeySP]
	owner, _, _, err = s.ResolveKey("D1", keySP, now)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ = s.Index(owner)
	row = idx.Table.Get(keySP)
	if len(row) != 1 || row[0].Freq != 2 {
		t.Errorf("⟨alice,knows⟩ row = %v, want freq 2", row)
	}
}

func TestPublishDuplicateTripleNotReindexed(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	tr := aliceTriples()[:1]
	now, err = s.Publish("D1", tr, now)
	if err != nil {
		t.Fatal(err)
	}
	before := s.TotalPostings()
	if _, err = s.Publish("D1", tr, now); err != nil {
		t.Fatal(err)
	}
	if s.TotalPostings() != before {
		t.Error("duplicate publish changed postings")
	}
}

func TestRetract(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Retract("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalPostings() != 0 {
		t.Errorf("postings after full retract = %d, want 0", s.TotalPostings())
	}
	if st, _ := s.Storage("D1"); st.Graph.Size() != 0 {
		t.Error("graph not empty after retract")
	}
}

func TestMultipleStorageNodesShareKeys(t *testing.T) {
	s, now := newTestSystem(t, 4)
	for _, d := range []string{"D1", "D2", "D3"} {
		_, done, err := s.AddStorageNode(simnet.Addr(d), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// all three nodes share a (knows, carol) triple with different subjects
	for i, d := range []string{"D1", "D2", "D3"} {
		tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex("carol")}
		done, err := s.Publish(simnet.Addr(d), []rdf.Triple{tr}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	pat := rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: ex("carol")}
	key, _, _ := PatternKey(pat, s.Config().Bits)
	read, _, err := NewLookupClient(s).Lookup("D1", key, trace.TraceContext{}, trace.TraceContext{}, now)
	if err != nil {
		t.Fatal(err)
	}
	row := read.Postings
	if len(row) != 3 {
		t.Errorf("⟨knows,carol⟩ row has %d postings, want 3: %v", len(row), row)
	}
}

func TestStorageNodeMatch(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// two units under the unit key: one table back per unit, in unit order
	req := MatchReq{Units: []MatchUnit{
		{Pattern: rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("y")}, Keys: eval.Table{N: 1}},
		{Pattern: rdf.Triple{S: rdf.NewVar("x"), P: fp("name"), O: rdf.NewVar("n")}, Keys: eval.Table{N: 1}},
	}}
	resp, _, err := s.Net().Call("idx-00", "D1", MethodMatch, req, now)
	if err != nil {
		t.Fatal(err)
	}
	tables := resp.(MatchResp).Tables
	if len(tables) != 2 {
		t.Fatalf("match returned %d tables for 2 units", len(tables))
	}
	if rows := tables[0]; rows.N != 2 || len(rows.Vars) != 2 {
		t.Errorf("knows unit returned %d rows over %v, want 2 over [x y]", rows.N, rows.Vars)
	}
	if rows := tables[1]; rows.N != 1 || rows.Vars[1] != "n" {
		t.Errorf("name unit returned %d rows over %v, want 1 over [x n]", rows.N, rows.Vars)
	}
}

func TestIndexNodeJoinTransfersTableSlice(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// add a new index node; afterwards every key must resolve to an owner
	// that actually has the row
	_, now, err = s.AddIndexNode("idx-late", now)
	if err != nil {
		t.Fatal(err)
	}
	now = s.Converge(now)
	for _, tr := range aliceTriples() {
		for _, key := range TripleKeys(tr, s.Config().Bits) {
			owner, _, done, err := s.ResolveKey("D1", key, now)
			now = done
			if err != nil {
				t.Fatal(err)
			}
			idx, _ := s.Index(owner)
			if len(idx.Table.Get(key)) == 0 {
				t.Errorf("after join, owner %s lacks row for key %v", owner, key)
			}
		}
	}
}

func TestIndexNodeGracefulLeaveHandsOverTable(t *testing.T) {
	s, now := newTestSystem(t, 4)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// gracefully remove the index node owning the ⟨s⟩ key
	keyS := TripleKeys(aliceTriples()[0], s.Config().Bits)[KeyS]
	owner, _, now, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.RemoveIndexGraceful(owner, now)
	if err != nil {
		t.Fatal(err)
	}
	newOwner, _, now, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner == owner {
		t.Fatal("key still resolves to the departed node")
	}
	idx, _ := s.Index(newOwner)
	if len(idx.Table.Get(keyS)) == 0 {
		t.Error("handed-over row missing at the successor")
	}
}

func TestIndexNodeCrashServedByReplica(t *testing.T) {
	s, now := newTestSystem(t, 5)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	keyS := TripleKeys(aliceTriples()[0], s.Config().Bits)[KeyS]
	owner, _, now, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	s.FailNode(owner)
	// let the ring heal
	for i := 0; i < 4; i++ {
		now = s.StabilizeRound(now)
	}
	now = s.Converge(now)
	newOwner, _, now, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner == owner {
		t.Fatal("lookup still routes to the crashed node")
	}
	idx, _ := s.Index(newOwner)
	row := idx.Table.Get(keyS)
	if len(row) == 0 {
		t.Error("replication did not preserve the row across the crash")
	}
}

func TestDropStorageEverywhere(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	s.FailNode("D1")
	s.DropStorageEverywhere("D1", now)
	if s.TotalPostings() != 0 {
		t.Errorf("postings after drop = %d, want 0", s.TotalPostings())
	}
}

func TestFig1Reconstruction(t *testing.T) {
	// Fig. 1: index nodes N1, N4, N7, N12, N15 in a 4-bit space with four
	// storage nodes attached.
	s := NewSystem(Config{Bits: 4, Replication: 1,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for _, id := range []chord.ID{1, 4, 7, 12, 15} {
		_, done, err := s.AddIndexNodeWithID(simnet.Addr(fmt.Sprintf("N%d", id)), id, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	for i := 1; i <= 4; i++ {
		_, done, err := s.AddStorageNode(simnet.Addr(fmt.Sprintf("D%d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	idx := s.IndexNodes()
	if len(idx) != 5 {
		t.Fatalf("index nodes = %d", len(idx))
	}
	wantSucc := map[chord.ID]chord.ID{1: 4, 4: 7, 7: 12, 12: 15, 15: 1}
	for _, n := range idx {
		if got := n.Chord.Successor().ID; got != wantSucc[n.ID()] {
			t.Errorf("successor(N%d) = %v, want N%d", n.ID(), got, wantSucc[n.ID()])
		}
	}
	// every storage node attaches to a ring member
	for _, st := range s.StorageNodes() {
		if _, ok := s.Index(st.AttachedTo()); !ok {
			t.Errorf("storage %s attached to non-index %s", st.Addr(), st.AttachedTo())
		}
	}
	// publication and lookup work in the 4-bit space
	now, err := s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	pat := rdf.Triple{S: ex("alice"), P: fp("knows"), O: rdf.NewVar("o")}
	key, _, _ := PatternKey(pat, 4)
	owner, hops, _, err := s.ResolveKey("D2", key, now)
	if err != nil {
		t.Fatal(err)
	}
	if hops > 5 {
		t.Errorf("lookup took %d hops in a 5-node ring", hops)
	}
	idxNode, _ := s.Index(owner)
	if len(idxNode.Table.Get(key)) == 0 {
		t.Error("lookup owner lacks the posting")
	}
}

func TestReplicationFactorHonored(t *testing.T) {
	s, now := newTestSystem(t, 5) // replication 2
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	// with R=2 every posting exists twice (primary + one replica), so the
	// total postings should be about 2× the primary count; each triple has
	// 6 keys and alice has 3 triples with overlapping keys
	primaryKeys := map[chord.ID]bool{}
	for _, tr := range aliceTriples() {
		for _, k := range TripleKeys(tr, s.Config().Bits) {
			primaryKeys[k] = true
		}
	}
	want := 2 * len(primaryKeys)
	if got := s.TotalPostings(); got != want {
		t.Errorf("total postings = %d, want %d (R=2 × %d keys)", got, want, len(primaryKeys))
	}
	for _, d := range replicaDiffs(s, nil) {
		t.Error(d)
	}
}

func TestConcurrentPublishAndLookup(t *testing.T) {
	s, now := newTestSystem(t, 6)
	var names []simnet.Addr
	for i := 0; i < 6; i++ {
		name := simnet.Addr(fmt.Sprintf("C%d", i))
		names = append(names, name)
		_, done, err := s.AddStorageNode(name, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name simnet.Addr) {
			defer wg.Done()
			var ts []rdf.Triple
			for j := 0; j < 20; j++ {
				ts = append(ts, rdf.Triple{
					S: ex(fmt.Sprintf("c%d-s%d", i, j)), P: fp("knows"), O: ex("hub"),
				})
			}
			if _, err := s.Publish(name, ts, 0); err != nil {
				t.Error(err)
			}
		}(i, name)
	}
	wg.Wait()
	// all 120 triples indexed under the shared (knows, hub) po-key
	pat := rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: ex("hub")}
	key, _, _ := PatternKey(pat, s.Config().Bits)
	owner, _, now, err := s.ResolveKey("C0", key, now)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Index(owner)
	row := idx.Table.Get(key)
	total := 0
	for _, p := range row {
		total += p.Freq
	}
	if len(row) != 6 || total != 120 {
		t.Errorf("po row = %v (total %d), want 6 postings totalling 120", row, total)
	}
}

// TestConcurrentRehomeOnFailedAttachment: a storage node whose attachment
// point died is re-homed by whichever of a publisher and a querier on it
// resolves first. Run under -race: the attachment is read and re-homed only
// under the storage node's lock, and both clients enter the ring at the one
// live node it ends up attached to.
func TestConcurrentRehomeOnFailedAttachment(t *testing.T) {
	s, now := newTestSystem(t, 6)
	st, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = s.Publish("D1", aliceTriples(), now); err != nil {
		t.Fatal(err)
	}
	dead := st.AttachedTo()
	s.FailNode(dead)
	now = s.Converge(now)

	key, _, _ := PatternKey(rdf.Triple{S: ex("alice"), P: fp("knows"), O: rdf.NewVar("o")}, s.Config().Bits)
	client := NewLookupClient(s)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ts := []rdf.Triple{{S: ex(fmt.Sprintf("p%d", i)), P: fp("knows"), O: ex("bob")}}
			if _, err := s.Publish("D1", ts, now); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			row, _, err := client.Lookup("D1", key, trace.TraceContext{}, trace.TraceContext{}, now)
			if err != nil {
				t.Error(err)
			} else if len(row.Postings) != 1 || row.Postings[0].Node != "D1" {
				t.Errorf("lookup row = %v, want D1's posting", row.Postings)
			}
		}
	}()
	wg.Wait()
	if a := st.AttachedTo(); a == dead || !s.Net().Alive(a) {
		t.Errorf("D1 attached to %s after re-homing away from dead %s", a, dead)
	}
}

func TestPostingDistributionAcrossIndexNodes(t *testing.T) {
	// With hashed keys, no single index node should hold everything.
	s, now := newTestSystem(t, 8)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	var ts []rdf.Triple
	for i := 0; i < 100; i++ {
		ts = append(ts, rdf.Triple{
			S: ex(fmt.Sprintf("s%d", i)), P: fp(fmt.Sprintf("p%d", i%7)), O: rdf.NewInteger(int64(i)),
		})
	}
	if _, err := s.Publish("D1", ts, now); err != nil {
		t.Fatal(err)
	}
	max, total := 0, 0
	for _, n := range s.IndexNodes() {
		c := n.Table.Postings()
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		t.Fatal("no postings")
	}
	if float64(max) > 0.6*float64(total) {
		t.Errorf("index load imbalance: one node holds %d of %d postings", max, total)
	}
}

func TestRetractUnknownAndPublishUnknown(t *testing.T) {
	s, now := newTestSystem(t, 3)
	if _, err := s.Publish("ghost", aliceTriples(), now); err == nil {
		t.Error("publish to unknown storage accepted")
	}
	if _, err := s.Retract("ghost", aliceTriples(), now); err == nil {
		t.Error("retract from unknown storage accepted")
	}
	if _, _, err := s.AddStorageNode("D1", now); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AddStorageNode("D1", now); err == nil {
		t.Error("duplicate storage node accepted")
	}
	if _, _, err := s.AddIndexNode("idx-00", now); err == nil {
		t.Error("duplicate index node accepted")
	}
}

func TestStorageNodeUnknownMethod(t *testing.T) {
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Net().Call("idx-00", "D1", "bogus.method", simnet.Bytes(1), now); err == nil {
		t.Error("unknown method accepted")
	}
	if _, _, err := s.Net().Call("D1", "idx-00", "bogus.method", simnet.Bytes(1), now); err == nil {
		t.Error("unknown index method accepted")
	}
}

// TestDuplicateRingIDRefused joins an index node under an identifier a
// ring member already has, on a Bits 4 circle: the join is refused with
// ErrDuplicateID, and the deployment, the registered handlers, the epoch and
// every ring pointer stay as they were.
func TestDuplicateRingIDRefused(t *testing.T) {
	s := NewSystem(Config{Bits: 4, Replication: 2, Net: simnet.Config{BaseLatency: time.Millisecond}})
	now := simnet.VTime(0)
	for i, id := range []chord.ID{1, 4, 9, 14} {
		_, done, err := s.AddIndexNodeWithID(simnet.Addr(fmt.Sprintf("idx-%d", i)), id, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	state := func() string {
		var sb strings.Builder
		for _, n := range s.IndexNodes() {
			fmt.Fprintf(&sb, "%s %v pred %v succs %v fingers %v\n",
				n.Addr(), n.ID(), n.Chord.Predecessor(), n.Chord.SuccessorList(), n.Chord.Fingers())
		}
		fmt.Fprintf(&sb, "registered %v, epoch %d", s.Net().Nodes(), s.Epoch())
		return sb.String()
	}
	before := state()
	n, done, err := s.AddIndexNodeWithID("idx-dup", 9, now)
	if !errors.Is(err, ErrDuplicateID) || n != nil || done != now {
		t.Fatalf("join under a taken identifier: node %v, done %v, err %v; want ErrDuplicateID at %v", n, done, err, now)
	}
	if after := state(); after != before {
		t.Errorf("a refused join changed the deployment\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestAddStorageWithoutIndexFails(t *testing.T) {
	s := NewSystem(Config{Bits: 16, Net: simnet.Config{BaseLatency: time.Millisecond}})
	if _, _, err := s.AddStorageNode("D1", 0); err == nil {
		t.Error("storage node without ring accepted")
	}
}

// TestIndexHandlersRejectWrongPayload sends each index method a request of
// the wrong type — every method a simnet.Bytes, put_batch also a
// PutBatchReq value and a nil *PutBatchReq, since it takes its request by
// pointer — and wants the handler's typed payload error with the location
// table untouched.
func TestIndexHandlersRejectWrongPayload(t *testing.T) {
	s, now := newTestSystem(t, 3)
	if _, _, err := s.AddStorageNode("D1", now); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("D1", aliceTriples(), now); err != nil {
		t.Fatal(err)
	}
	n := s.IndexNodes()[0]
	before := fmt.Sprint(n.Table.Snapshot())
	rows := []rpc{
		{MethodPutBatch, PutBatchReq{Node: "D1", Entries: []KeyFreq{{Key: n.ID(), Freq: 1}}}},
		{MethodPutBatch, (*PutBatchReq)(nil)},
	}
	for _, method := range []string{MethodPutBatch, MethodRoutedRead, MethodTransfer, MethodHandover,
		MethodDropNode, MethodReplica, MethodReplicaRepair, MethodHotLookup} {
		rows = append(rows, rpc{method, simnet.Bytes(1)})
	}
	for _, r := range rows {
		_, _, err := n.HandleCall(0, r.method, r.req)
		want := fmt.Sprintf("overlay: %s payload %T", strings.TrimPrefix(r.method, "index."), r.req)
		if err == nil || err.Error() != want {
			t.Errorf("%s with a %T request: error %v, want %q", r.method, r.req, err, want)
		}
	}
	if after := fmt.Sprint(n.Table.Snapshot()); after != before {
		t.Errorf("location table changed by rejected requests:\n%s\nwant\n%s", after, before)
	}
}

func TestRepublishAfterRecoveryIdempotent(t *testing.T) {
	s, now := newTestSystem(t, 5)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Publish("D1", aliceTriples(), now)
	if err != nil {
		t.Fatal(err)
	}
	healthy := s.TotalPostings()

	// crash D1; every index node drops its postings (global cleanup)
	s.FailNode("D1")
	for _, n := range s.IndexNodes() {
		n.Table.DropNode("D1")
	}
	if s.TotalPostings() != 0 {
		t.Fatal("cleanup incomplete")
	}
	// D1 comes back with its data intact; re-publication restores postings
	s.RecoverNode("D1")
	now, err = s.Republish("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPostings(); got != healthy {
		t.Errorf("postings after republish = %d, want %d", got, healthy)
	}
	// repeating Republish must not double anything (absolute semantics)
	now, err = s.Republish("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPostings(); got != healthy {
		t.Errorf("postings after second republish = %d, want %d", got, healthy)
	}
	// frequencies restored exactly
	keyS := TripleKeys(aliceTriples()[0], s.Config().Bits)[KeyS]
	owner, _, _, err := s.ResolveKey("D1", keyS, now)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := s.Index(owner)
	row := idx.Table.Get(keyS)
	if len(row) != 1 || row[0].Freq != 3 {
		t.Errorf("restored row = %v, want freq 3", row)
	}
}

func TestLocationTableSet(t *testing.T) {
	lt := NewLocationTable()
	lt.Set(1, "D1", 5)
	if lt.Get(1)[0].Freq != 5 {
		t.Error("Set insert failed")
	}
	lt.Set(1, "D1", 5)
	if lt.Get(1)[0].Freq != 5 || lt.Postings() != 1 {
		t.Error("Set not idempotent")
	}
	lt.Set(1, "D1", 2)
	if lt.Get(1)[0].Freq != 2 {
		t.Error("Set overwrite failed")
	}
	lt.Set(1, "D1", 0)
	if lt.Len() != 0 {
		t.Error("Set zero did not remove")
	}
}
