package overlay

import (
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// TestHotReadServesOnlyTheOwnersRow pins the contract of an adaptive hot
// read: a holder of a hot key's replica row serves it only when its row's
// digest is that of the row the reader last had from the owner. The key's
// one holder at Replication 2 is made to hold another row than its owner
// twice — by the left-behind-rows sequence (the holder crashes, the key is
// written, the holder recovers without the write) and by a write to the
// holder's table alone — and each lookup must still return the owner's
// row, the holder answering its hot_lookup Hit=false. Once the rows agree
// again, a read from a fresh hint is a replica hit at the holder.
func TestHotReadServesOnlyTheOwnersRow(t *testing.T) {
	s, _, now := newMonitoredSystem(t, 5, 1)
	key := TripleKeys(rdf.Triple{S: ex("alice0"), P: fp("name"), O: rdf.NewLiteral("Alice Smith")}, s.Config().Bits)[KeyP]
	owner := responsibleNode(s.IndexNodes(), key)
	holder, _ := s.Index(owner.Chord.Successor().Addr)

	// The holder's answers to hot reads, in order.
	var answers []bool
	s.Net().Register(holder.Addr(), simnet.HandlerFunc(func(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
		resp, done, err := holder.HandleCall(at, method, req)
		if r, ok := resp.(HotPostingsResp); ok && method == MethodHotLookup {
			answers = append(answers, r.Hit)
		}
		return resp, done, err
	}))
	client := NewLookupClient(s)
	lookup := func() LookupRow {
		t.Helper()
		row, done, err := client.Lookup("D00", key, trace.TraceContext{}, trace.TraceContext{}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		if got, want := renderPostings(row.Postings), renderPostings(owner.Table.Get(key)); got != want {
			t.Fatalf("lookup of key %v returned %s, the owner holds %s", key, got, want)
		}
		return row
	}
	// readHolder looks the key up until the holder answers a hot read (the
	// rotation reaches it within two reads of a hint), reading the owner
	// first when the client holds no hint, and returns the holder's answer.
	readHolder := func() bool {
		t.Helper()
		asked := len(answers)
		for i := 0; i < 4 && len(answers) == asked; i++ {
			lookup()
		}
		if len(answers) == asked {
			t.Fatalf("four lookups of hot key %v never read holder %s", key, holder.Addr())
		}
		return answers[len(answers)-1]
	}
	for i := 0; i < hotThreshold; i++ {
		lookup()
	}
	if !readHolder() {
		t.Fatalf("holder %s missed while its row agreed with the owner's", holder.Addr())
	}

	// The left-behind row: the write reaches the owner and the next live
	// successor while the holder is down, and the holder recovers without it.
	s.FailNode(holder.Addr())
	for i := 0; i < 4; i++ {
		now = s.StabilizeRound(now)
	}
	var err error
	if now, err = s.Publish("D00", []rdf.Triple{{S: ex("zed"), P: fp("name"), O: rdf.NewLiteral("Zed")}}, now); err != nil {
		t.Fatal(err)
	}
	s.RecoverNode(holder.Addr())
	now = s.Converge(now)
	if renderPostings(holder.Table.Get(key)) == renderPostings(owner.Table.Get(key)) {
		t.Fatal("the holder's row caught up on recovery: the scenario no longer leaves it behind")
	}
	if readHolder() {
		t.Fatalf("holder %s served its left-behind row", holder.Addr())
	}
	holder.Table.Replace(map[chord.ID][]Posting{key: owner.Table.Get(key)})
	if !readHolder() {
		t.Fatalf("holder %s missed once its row agreed with the owner's again", holder.Addr())
	}

	// A write to the holder's table alone.
	holder.Table.Add(key, "D99", 1)
	if readHolder() {
		t.Fatalf("holder %s served a row the owner never returned", holder.Addr())
	}
	holder.Table.Add(key, "D99", -1)
	if !readHolder() {
		t.Fatalf("holder %s missed once its row agreed with the owner's again", holder.Addr())
	}
}
