package overlay

import (
	"fmt"
	"slices"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// replicaTriples is n triples with distinct subjects and objects, so their
// keys spread over the ring.
func replicaTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: fp("knows"), O: ex(fmt.Sprintf("o%d", i))}
	}
	return out
}

// distinctKeys is the set of keys the triples hash to, in first-seen order.
func distinctKeys(triples []rdf.Triple, bits uint) []chord.ID {
	var keys []chord.ID
	for _, tr := range triples {
		for _, k := range TripleKeys(tr, bits) {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// replicaDiffs compares, for every live index node and every key of keys
// (nil = every row it holds) in its own range (predecessor, self], the
// node's row with the row at each of its next replication−1 live
// successors, and describes each disagreement.
func replicaDiffs(s *System, keys []chord.ID) []string {
	var diffs []string
	for _, n := range s.IndexNodes() {
		if !s.Net().Alive(n.Addr()) {
			continue
		}
		var holders []simnet.Addr
		for _, succ := range n.Chord.SuccessorList() {
			if len(holders) == s.Config().Replication-1 {
				break
			}
			if succ.Addr != n.Addr() && s.Net().Alive(succ.Addr) {
				holders = append(holders, succ.Addr)
			}
		}
		check := keys
		if check == nil {
			for k := range n.Table.Snapshot() {
				check = append(check, k)
			}
		}
		pred := n.Chord.Predecessor().ID
		for _, k := range check {
			if !ringRightIncl(k, pred, n.ID()) {
				continue
			}
			want := n.Table.Get(k)
			for _, h := range holders {
				replica, _ := s.Index(h)
				if got := replica.Table.Get(k); !slices.Equal(got, want) {
					diffs = append(diffs, fmt.Sprintf("key %v: primary %s %v, replica %s %v", k, n.Addr(), want, h, got))
				}
			}
		}
	}
	return diffs
}

// replicaSystem is a four-index-node deployment at Replication 2 with
// storage nodes D1 and D2.
func replicaSystem(t *testing.T) (*System, simnet.VTime) {
	t.Helper()
	s, now := newTestSystem(t, 4)
	for _, d := range []simnet.Addr{"D1", "D2"} {
		_, done, err := s.AddStorageNode(d, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, now
}

// lossyReplica wraps an index node's handler and reports the first
// index.replicate reply as lost after the handler ran, so CallRetry runs
// the handler a second time.
type lossyReplica struct {
	node *IndexNode
	runs int
}

func (l *lossyReplica) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	resp, done, err := l.node.HandleCall(at, method, req)
	if method != MethodReplica {
		return resp, done, err
	}
	l.runs++
	if l.runs == 1 {
		return nil, done, simnet.ErrReplyLost
	}
	return resp, done, err
}

// TestReplicaDeltaHealsMissedUpdate checks that a replica holder that
// missed a put_batch, or never held the rows, ends with the primary's rows
// once the primary writes them again. D1's edit is the update the holder
// misses; D2 then edits the same keys, so only the row digest can tell the
// holder that its D1 postings are missing.
func TestReplicaDeltaHealsMissedUpdate(t *testing.T) {
	triples := replicaTriples(12)

	// primary is the owner of the triples' first key, succ its successor.
	primary := func(t *testing.T, s *System) (*IndexNode, *IndexNode, []chord.ID) {
		t.Helper()
		keys := distinctKeys(triples, s.Config().Bits)
		owner, _, _, err := s.ResolveKey("D1", keys[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := s.Index(owner)
		succ, _ := s.Index(p.Chord.Successor().Addr)
		return p, succ, keys
	}
	publish := func(t *testing.T, s *System, d simnet.Addr, triples []rdf.Triple, now simnet.VTime) simnet.VTime {
		t.Helper()
		done, err := s.Publish(d, triples, now)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	expectHealed := func(t *testing.T, s *System, keys []chord.ID) {
		t.Helper()
		for _, d := range replicaDiffs(s, keys) {
			t.Error(d)
		}
	}

	t.Run("successor down during an edit", func(t *testing.T) {
		s, now := replicaSystem(t)
		p, succ, keys := primary(t, s)
		now = publish(t, s, "D1", triples[:6], now)
		s.FailNode(succ.Addr())
		now = publish(t, s, "D1", triples[6:], now)
		s.RecoverNode(succ.Addr())
		now = s.Converge(now)
		if p.Chord.Successor().Addr != succ.Addr() {
			t.Fatalf("%s's successor is %s, want the recovered %s", p.Addr(), p.Chord.Successor().Addr, succ.Addr())
		}
		publish(t, s, "D2", triples, now)
		expectHealed(t, s, keys)
	})

	t.Run("new successor by join", func(t *testing.T) {
		s, now := replicaSystem(t)
		p, _, keys := primary(t, s)
		now = publish(t, s, "D1", triples, now)
		joiner, now, err := s.AddIndexNodeWithID("idx-new", p.ID()+1, now)
		if err != nil {
			t.Fatal(err)
		}
		if p.Chord.Successor().Addr != joiner.Addr() {
			t.Fatalf("%s's successor is %s, want the joiner", p.Addr(), p.Chord.Successor().Addr)
		}
		publish(t, s, "D2", triples, now)
		expectHealed(t, s, keys)
	})

	t.Run("lost delta reply", func(t *testing.T) {
		s, now := replicaSystem(t)
		_, succ, keys := primary(t, s)
		now = publish(t, s, "D1", triples, now)
		lossy := &lossyReplica{node: succ}
		s.Net().Register(succ.Addr(), lossy)
		before := s.Net().Metrics()
		publish(t, s, "D2", triples, now)
		if lossy.runs < 2 {
			t.Fatalf("replicate handler ran %d times, want the lost reply's re-run", lossy.runs)
		}
		// Every replica held the rows before D2's edit, so a re-run that
		// applied D2's frequencies twice is the only way a digest could
		// differ and a repair be sent.
		if n := s.Net().Metrics().Sub(before).PerMethod[MethodReplicaRepair].Messages; n != 0 {
			t.Errorf("%d replica_repair messages after a re-run delta, want 0", n)
		}
		expectHealed(t, s, keys)
	})
}

// TestJoinerCrashServedBySuccessor joins an index node, crashes it before
// any of its rows is rewritten, and checks that every key is still served:
// under Replication 2 the joiner's successor keeps the rows it handed over.
func TestJoinerCrashServedBySuccessor(t *testing.T) {
	s, now := newTestSystem(t, 4)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	triples := replicaTriples(60)
	if now, err = s.Publish("D1", triples, now); err != nil {
		t.Fatal(err)
	}
	keys := distinctKeys(triples, s.Config().Bits)
	for round := 0; round < 3; round++ {
		// The joiner takes the ring position of a key, so its range holds
		// at least that row.
		joiner, done, err := s.AddIndexNodeWithID(simnet.Addr(fmt.Sprintf("join-%d", round)), keys[round*7], now)
		if err != nil {
			t.Fatal(err)
		}
		s.FailNode(joiner.Addr())
		now = done
		for i := 0; i < 4; i++ {
			now = s.StabilizeRound(now)
		}
		now = s.Converge(now)
		missing := 0
		for _, k := range keys {
			owner, _, done, err := s.ResolveKey("D1", k, now)
			if err != nil {
				t.Fatal(err)
			}
			now = done
			if idx, _ := s.Index(owner); len(idx.Table.Get(k)) == 0 {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("round %d: %d of %d keys have no row at their owner after the joiner crashed", round, missing, len(keys))
		}
	}
}
