package overlay

import (
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
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
// out by owner in one backing slice, so each owner it ships to adds the
// same count — the request it sends — whatever the keys per owner.
func TestPutBatchAllocatesPerBatch(t *testing.T) {
	t.Run("owner", func(t *testing.T) {
		s, now := chainSystem(t, 4, 2)
		owner := s.IndexNodes()[1]
		allocs := func(n int) float64 {
			entries := make([]KeyFreq, n)
			for i, key := range arcKeys(owner, n) {
				entries[i] = KeyFreq{Key: key, Freq: 1}
			}
			add := PutBatchReq{Node: "D1", Entries: entries}
			sub := PutBatchReq{Node: "D1", Entries: make([]KeyFreq, n)}
			for i, e := range entries {
				sub.Entries[i] = KeyFreq{Key: e.Key, Freq: -1}
			}
			return testing.AllocsPerRun(50, func() {
				for _, req := range []PutBatchReq{add, sub} {
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
			add, sub := map[chord.ID]int{}, map[chord.ID]int{}
			for _, owner := range s.IndexNodes()[:owners] {
				for _, key := range arcKeys(owner, perOwner) {
					add[key], sub[key] = 1, -1
				}
			}
			return testing.AllocsPerRun(20, func() {
				for _, freq := range []map[chord.ID]int{add, sub} {
					var err error
					if now, err = s.installPostings(node, freq, trace.TraceContext{}, now); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		if small, large := allocs(4, 8), allocs(4, 64); small != large {
			t.Errorf("an edit to 4 owners allocates %.1f objects with 8 keys each, %.1f with 64: want the same", small, large)
		}
		two, four, eight := allocs(2, 64), allocs(4, 32), allocs(8, 16)
		if perOwner := (four - two) / 2; (eight-four)/4 != perOwner {
			t.Errorf("an edit of 128 keys allocates %.1f, %.1f and %.1f objects over 2, 4 and 8 owners: want a fixed count per owner", two, four, eight)
		}
	})
}

// TestMatchAllocatesPerUnit pins store.match's allocations to its units.
// Over an empty match, a match of k identical units allocates the reply's
// table slice plus six objects per unit — the unit's variables, its
// scoped graph and its reply table — so nothing in the handler is paid
// per unit beyond the unit's own evaluation.
func TestMatchAllocatesPerUnit(t *testing.T) {
	const perUnit = 6
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
	for _, k := range []int{1, 2, 8} {
		if got, want := allocs(k)-empty, float64(1+perUnit*k); got != want {
			t.Errorf("a match of %d units allocates %.1f objects over an empty one, want %.0f (the table slice and %d per unit)", k, got, want, perUnit)
		}
	}
}
