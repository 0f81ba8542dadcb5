package overlay

import (
	"fmt"
	"slices"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// arcKeys returns n keys of owner's arc, the last n identifiers up to and
// including its own.
func arcKeys(owner *IndexNode, n int) []chord.ID {
	keys := make([]chord.ID, n)
	for i := range keys {
		keys[i] = owner.ID() - chord.ID(i)
	}
	return keys
}

// TestPutBatchAllocatesPerBatch pins the write path's allocations to its
// batches. An owner applies and digests a put_batch in one pass over its
// table and forwards the delta to its replica, so a batch of 64 entries
// allocates as many objects as one of 8. A provider lays an edit's keys
// out by owner in one backing slice and cuts the edit's requests from
// another, so each owner it ships to adds providerPerOwner objects — the
// owner's delta, its forward down the chain and the fabric's legs —
// whatever the keys per owner.
func TestPutBatchAllocatesPerBatch(t *testing.T) {
	const providerPerOwner = 4
	t.Run("owner", func(t *testing.T) {
		s, now := chainSystem(t, 4, 2)
		owner := s.IndexNodes()[1]
		allocs := func(n int) float64 {
			entries := make([]KeyFreq, n)
			for i, key := range arcKeys(owner, n) {
				entries[i] = KeyFreq{Key: key, Freq: 1}
			}
			add := &PutBatchReq{Node: "D1", Entries: entries}
			sub := &PutBatchReq{Node: "D1", Entries: make([]KeyFreq, n)}
			for i, e := range entries {
				sub.Entries[i] = KeyFreq{Key: e.Key, Freq: -1}
			}
			return testing.AllocsPerRun(50, func() {
				for _, req := range []*PutBatchReq{add, sub} {
					if _, _, err := owner.HandleCall(now, MethodPutBatch, req); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		if small, large := allocs(8), allocs(64); small != large {
			t.Errorf("an owner's put_batch and its undo allocate %.1f objects for 8 entries, %.1f for 64: want the same", small, large)
		}
	})
	t.Run("provider", func(t *testing.T) {
		// allocs is a provider's publish and retract of perOwner keys at
		// each of the first owners index nodes, once it knows their arcs.
		allocs := func(owners, perOwner int) float64 {
			s, now := chainSystem(t, 8, 2)
			node, _ := s.Storage("D1")
			var ids []chord.ID
			for _, owner := range s.IndexNodes()[:owners] {
				ids = append(ids, arcKeys(owner, perOwner)...)
			}
			add, sub := sumKeyFreqs(slices.Clone(ids), 1), sumKeyFreqs(ids, -1)
			return testing.AllocsPerRun(20, func() {
				for _, entries := range [][]KeyFreq{add, sub} {
					var err error
					if now, err = s.installPostingsMode(node, entries, false, trace.TraceContext{}, now); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		if small, large := allocs(4, 8), allocs(4, 64); small != large {
			t.Errorf("an edit to 4 owners allocates %.1f objects with 8 keys each, %.1f with 64: want the same", small, large)
		}
		two, four, eight := allocs(2, 64), allocs(4, 32), allocs(8, 16)
		if (four-two)/2 != providerPerOwner || (eight-four)/4 != providerPerOwner {
			t.Errorf("an edit of 128 keys allocates %.1f, %.1f and %.1f objects over 2, 4 and 8 owners: want %d more per owner", two, four, eight, providerPerOwner)
		}
	})
}

// TestMatchAllocatesPerUnit pins store.match's allocations to its units.
// An empty match allocates two objects. Over it, a match of k identical
// units allocates the reply's table slice plus four objects per unit — the
// unit's variables, its scoped graph, and its reply table's cells and
// dictionary — so nothing in the handler is paid per unit beyond the
// unit's own evaluation. A store.chain hop evaluates one unit the same way.
//
// Under -race the count is not the program's: instrumentation moves a
// unit's values to the heap, so the test runs without it only.
func TestMatchAllocatesPerUnit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const base, perUnit = 2, 4
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = s.Publish("D1", aliceTriples(), now); err != nil {
		t.Fatal(err)
	}
	node, _ := s.Storage("D1")
	allocs := func(k int) float64 {
		req := MatchReq{Units: make([]MatchUnit, k)}
		for i := range req.Units {
			req.Units[i] = MatchUnit{Pattern: rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("y")}, Keys: eval.Table{N: 1}}
		}
		return testing.AllocsPerRun(50, func() {
			if _, _, err := node.HandleCall(now, MethodMatch, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	empty := allocs(0)
	if empty != base {
		t.Errorf("an empty match allocates %.1f objects, want %d", empty, base)
	}
	for _, k := range []int{1, 2, 8} {
		if got, want := allocs(k)-empty, float64(1+perUnit*k); got != want {
			t.Errorf("a match of %d units allocates %.1f objects over an empty one, want %.0f (the table slice and %d per unit)", k, got, want, perUnit)
		}
	}
	// A chain hop is a one-unit match answered with its table alone.
	hop := ChainReq{Sub: MatchReq{Units: []MatchUnit{{Pattern: rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("y")}, Keys: eval.Table{N: 1}}}}}
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := node.HandleCall(now, MethodChainHop, hop); err != nil {
			t.Fatal(err)
		}
	})
	if want := empty + perUnit; got != want {
		t.Errorf("a chain hop allocates %.1f objects, want %.0f (a one-unit match less the table slice)", got, want)
	}
}

// rpc is one request to a handler.
type rpc struct {
	method string
	req    simnet.Payload
}

// TestIndexHandlerAllocs pins the allocations of every method
// IndexNode.HandleCall dispatches — replicate, replica_repair, put_batch,
// routed_read, hot_lookup, transfer, handover, drop_node and
// the query engine's data legs, which a storage node takes over too
// (StorageNode.HandleCall's store.match and store.chain are
// TestMatchAllocatesPerUnit's).
// Each row runs valid requests on a
// 4-node ring at Replication 2 that D1 and D2 have published to, a method
// that changes state followed by its undo. A method whose work is per key
// or per posting is run at two sizes and pinned at both: put_batch and
// replicate at the same count, whatever their entries.
func TestIndexHandlerAllocs(t *testing.T) {
	s, now := chainSystem(t, 4, 2)
	triples := replicaTriples(100)
	var err error
	if now, err = s.Publish("D1", triples[:50], now); err != nil {
		t.Fatal(err)
	}
	if now, err = s.Publish("D2", triples[50:], now); err != nil {
		t.Fatal(err)
	}
	nodes := s.IndexNodes()
	owner, holder, other := nodes[1], nodes[2], nodes[3]
	// held is every key of owner's own arc it holds a row for, in key
	// order; keys(k) is the first k.
	var held []chord.ID
	for key := range owner.Table.Snapshot() {
		if (chord.Arc{Start: nodes[0].ID(), Owner: owner.Chord.Ref()}).Contains(key) {
			held = append(held, key)
		}
	}
	slices.Sort(held)
	keys := func(k int) []chord.ID {
		if k > len(held) {
			t.Fatalf("owner holds %d rows, want %d", len(held), k)
		}
		return held[:k]
	}
	postings := func(k int) []Posting {
		ps := make([]Posting, k)
		for i := range ps {
			ps[i] = Posting{Node: simnet.Addr(fmt.Sprintf("D%02d", i)), Freq: 1}
		}
		return ps
	}
	heldRows := owner.Table.Rows(held)
	storage, _ := s.Storage("D1")
	dataLegs := func(int) []rpc {
		// Taking over what was delivered costs nothing.
		leg := simnet.Payload(StaleKeys{Keys: held})
		return []rpc{{MethodDispatch, leg}, {MethodShip, leg}, {MethodResult, leg}}
	}
	for _, row := range []struct {
		at     simnet.Handler
		units  []int     // request sizes; nil: one request without units
		allocs []float64 // the exact count at each size
		calls  func(k int) []rpc
	}{
		{holder, []int{8, 64}, []float64{0, 0}, func(k int) []rpc {
			set := ReplicaDelta{Node: "D1", From: owner.Addr(), Entries: make([]DeltaEntry, k)}
			unset := ReplicaDelta{Node: "D1", From: owner.Addr(), Entries: make([]DeltaEntry, k)}
			for i, key := range arcKeys(owner, k) {
				set.Entries[i] = DeltaEntry{Key: key, Freq: 1, Digest: rowDigest([]Posting{{Node: "D1", Freq: 1}})}
				unset.Entries[i] = DeltaEntry{Key: key, Digest: rowDigest(nil)}
			}
			return []rpc{{MethodReplica, set}, {MethodReplica, unset}}
		}},
		{owner, []int{1, 8}, []float64{3, 10}, func(k int) []rpc {
			return []rpc{{MethodReplicaRepair, StaleKeys{Keys: keys(k)}}}
		}},
		{owner, []int{8, 64}, []float64{4, 4}, func(k int) []rpc {
			add := &PutBatchReq{Node: "D1", Entries: make([]KeyFreq, k)}
			sub := &PutBatchReq{Node: "D1", Entries: make([]KeyFreq, k)}
			for i, key := range arcKeys(owner, k) {
				add.Entries[i], sub.Entries[i] = KeyFreq{Key: key, Freq: 1}, KeyFreq{Key: key, Freq: -1}
			}
			return []rpc{{MethodPutBatch, add}, {MethodPutBatch, sub}}
		}},
		{holder, nil, []float64{4}, func(int) []rpc {
			return []rpc{{MethodRoutedRead, RoutedReadReq{Keys: keys(1), Origin: "D1"}}}
		}},
		{holder, []int{2, 16}, []float64{27, 47}, func(k int) []rpc {
			return []rpc{{MethodRoutedRead, RoutedReadReq{Keys: keys(k), Origin: "D1"}}}
		}},
		{other, []int{1, 8}, []float64{2, 2}, func(k int) []rpc {
			// A hit on a row of k postings, which the node holds for the
			// test alone.
			other.Table.Replace(map[chord.ID][]Posting{held[0]: postings(k)})
			return []rpc{{MethodHotLookup, HotLookupReq{Key: held[0], Digest: rowDigest(postings(k))}}}
		}},
		{owner, []int{1, 8}, []float64{3, 10}, func(k int) []rpc {
			return []rpc{{MethodTransfer, TransferReq{From: held[0] - 1, To: held[k-1]}}}
		}},
		{holder, []int{1, 8}, []float64{1, 8}, func(k int) []rpc {
			// D99 joins each row, and the rows as they were replace it.
			rows, undo := map[chord.ID][]Posting{}, map[chord.ID][]Posting{}
			for _, key := range keys(k) {
				rows[key] = append(slices.Clone(heldRows[key]), Posting{Node: "D99", Freq: 1})
				undo[key] = heldRows[key]
			}
			return []rpc{{MethodHandover, TableRows{Rows: rows}}, {MethodHandover, TableRows{Rows: undo}}}
		}},
		{owner, nil, []float64{1}, func(int) []rpc {
			// The undo hands D2's rows back over.
			rows := map[chord.ID][]Posting{}
			for key, row := range owner.Table.Snapshot() {
				if slices.ContainsFunc(row, func(p Posting) bool { return p.Node == "D2" }) {
					rows[key] = row
				}
			}
			return []rpc{{MethodDropNode, DropNodeReq{Node: "D2"}}, {MethodHandover, TableRows{Rows: rows}}}
		}},
		{owner, nil, []float64{0}, dataLegs},
		{storage, nil, []float64{0}, dataLegs},
	} {
		sizes := row.units
		if sizes == nil {
			sizes = []int{0}
		}
		for i, k := range sizes {
			calls := row.calls(k)
			got := testing.AllocsPerRun(50, func() {
				for _, c := range calls {
					if _, _, err := row.at.HandleCall(now, c.method, c.req); err != nil {
						t.Fatal(err)
					}
				}
			})
			if got != row.allocs[i] {
				t.Errorf("%s of %d units allocates %.1f objects, want %.0f", calls[0].method, k, got, row.allocs[i])
			}
		}
	}
}
