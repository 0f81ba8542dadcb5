package rdfpeers

import (
	"fmt"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// TestRDFPeersHandlerAllocs pins the allocations of every RDFPeers method
// Node.HandleCall dispatches: store, match, range, intersect, the last
// with and without candidates, and the result an initiator takes over.
// Each row runs one valid request at a ring member whose store holds 64
// subjects with a numeric age and, for k = 1 and 8, k subjects that know
// ex:kk. A store is followed by its undo, the
// triple's removal. A method whose reply grows per matching triple or per
// candidate is run at two sizes and pinned at both.
func TestRDFPeersHandlerAllocs(t *testing.T) {
	s, _ := newRing(t, 1)
	n := s.nodes["rp-00"]
	for i := 0; i < 64; i++ {
		n.Store.Add(rdf.Triple{S: ex(fmt.Sprint("s", i)), P: fp("age"), O: rdf.NewInteger(int64(i))})
	}
	for _, k := range []int{1, 8} {
		for i := 0; i < k; i++ {
			n.Store.Add(rdf.Triple{S: ex(fmt.Sprint("s", i)), P: fp("knows"), O: ex(fmt.Sprint("k", k))})
		}
	}
	added := rdf.Triple{S: ex("new"), P: fp("age"), O: rdf.NewInteger(1)}
	for _, row := range []struct {
		method string
		units  []int     // request sizes; nil: one request without units
		allocs []float64 // the exact count at each size
		req    func(k int) simnet.Payload
		undo   func()
	}{
		{MethodStore, nil, []float64{0}, func(int) simnet.Payload { return StoreReq{Triple: added} },
			func() { n.Store.Remove(added) }},
		{MethodMatch, []int{1, 8}, []float64{6, 23}, func(k int) simnet.Payload {
			return MatchReq{Pattern: rdf.Triple{S: rdf.NewVar("s"), P: fp("knows"), O: ex(fmt.Sprint("k", k))}}
		}, nil},
		{MethodRange, []int{1, 8}, []float64{3, 8}, func(k int) simnet.Payload {
			return RangeReq{Predicate: fp("age"), Lo: 0, Hi: float64(k - 1)}
		}, nil},
		{MethodIntersect, []int{1, 8}, []float64{2, 5}, func(k int) simnet.Payload {
			cands := make([]rdf.Term, k)
			for i := range cands {
				cands[i] = ex(fmt.Sprint("s", i))
			}
			return IntersectReq{Pattern: rdf.Triple{S: rdf.NewVar("s"), P: fp("age"), O: rdf.NewVar("o")}, Candidates: cands}
		}, nil},
		{MethodIntersect, nil, []float64{8}, func(int) simnet.Payload {
			return IntersectReq{Pattern: rdf.Triple{S: rdf.NewVar("s"), P: fp("knows"), O: ex("k8")}}
		}, nil},
		{MethodResult, nil, []float64{0}, func(int) simnet.Payload {
			return TermsResp{Terms: []rdf.Term{ex("s0")}}
		}, nil},
	} {
		sizes := row.units
		if sizes == nil {
			sizes = []int{0}
		}
		for i, k := range sizes {
			req := row.req(k)
			got := testing.AllocsPerRun(50, func() {
				if _, _, err := n.HandleCall(0, row.method, req); err != nil {
					t.Fatal(err)
				}
				if row.undo != nil {
					row.undo()
				}
			})
			if got != row.allocs[i] {
				t.Errorf("%s of %d units allocates %.1f objects, want %.0f", row.method, k, got, row.allocs[i])
			}
		}
	}
}
