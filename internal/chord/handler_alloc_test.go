package chord

import (
	"testing"

	"adhocshare/internal/simnet"
)

// rpc is one request to a handler.
type rpc struct {
	method string
	req    simnet.Payload
}

// TestChordHandlerAllocs pins the allocations of every method Node.HandleCall
// dispatches: find_successor, find_successor_batch, get_predecessor,
// get_successor_list, notify, ping, update_finger, set_predecessor and
// set_successor. Each row runs valid requests on a converged 32-node ring,
// a method that changes state followed by its undo. A find_successor_batch
// forwards its k targets as one sub-batch per hop, so it is run at two
// sizes and pinned at both.
func TestChordHandlerAllocs(t *testing.T) {
	nodes := buildN(t, testNet(), 32, 16)
	n := nodes[0]
	pred, succs, fingers := n.Predecessor(), n.SuccessorList(), n.Fingers()
	far := n.ID() - 1 // owned by n itself: every hop of the route is taken
	other := succs[1]
	for _, row := range []struct {
		units  []int     // request sizes; nil: one request without units
		allocs []float64 // the exact count at each size
		calls  func(k int) []rpc
	}{
		{nil, []float64{9}, func(int) []rpc {
			return []rpc{{MethodFindSuccessor, FindReq{Target: far}}}
		}},
		{[]int{1, 64}, []float64{44, 68}, func(k int) []rpc {
			targets := make([]ID, k)
			for i := range targets {
				targets[i] = far - ID(i)
			}
			return []rpc{{MethodFindSuccessorBatch, BatchFindReq{Targets: targets}}}
		}},
		{nil, []float64{1}, func(int) []rpc { return []rpc{{MethodGetPredecessor, simnet.Bytes(1)}} }},
		{nil, []float64{2}, func(int) []rpc { return []rpc{{MethodGetSuccList, simnet.Bytes(1)}} }},
		{nil, []float64{0}, func(int) []rpc {
			// A candidate past the predecessor takes its place; the undo
			// sets the predecessor back.
			return []rpc{{MethodNotify, Ref{ID: n.ID() - 1, Addr: "candidate"}}, {MethodSetPredecessor, pred}}
		}},
		{nil, []float64{0}, func(int) []rpc { return []rpc{{MethodPing, simnet.Bytes(1)}} }},
		{nil, []float64{2}, func(int) []rpc {
			start := n.ID().add(3, 16)
			set := FingerReq{From: start - 1, To: start, Owner: other, K: 3}
			undo := set
			undo.Owner = fingers[3]
			return []rpc{{MethodUpdateFinger, set}, {MethodUpdateFinger, undo}}
		}},
		{nil, []float64{0}, func(int) []rpc {
			return []rpc{{MethodSetPredecessor, other}, {MethodSetPredecessor, pred}}
		}},
		{nil, []float64{6}, func(int) []rpc {
			return []rpc{{MethodSetSuccessor, other}, {MethodSetSuccessor, succs[0]}}
		}},
	} {
		sizes := row.units
		if sizes == nil {
			sizes = []int{0}
		}
		for i, k := range sizes {
			calls := row.calls(k)
			got := testing.AllocsPerRun(50, func() {
				for _, c := range calls {
					if _, _, err := n.HandleCall(0, c.method, c.req); err != nil {
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
