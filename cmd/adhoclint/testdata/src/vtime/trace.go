package vtime

import (
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// TracedFanOut derives child contexts from the branch index and records
// spans inside the branches: clean — Record moves no modeled time, and
// captured writes are ordered by the branch index.
func (n *Node) TracedFanOut(peers []simnet.Addr, rec trace.Recorder, tc trace.TraceContext, at simnet.VTime) simnet.VTime {
	ctxs := make([]trace.TraceContext, len(peers))
	res, done := simnet.Parallel(len(peers), 4, func(i int) (int, simnet.VTime, error) {
		ctxs[i] = tc.Child(uint64(i))
		_, d, err := n.net.Call(n.addr, peers[i], MethodPing, Ping{}, at)
		rec.Record(trace.Span{Query: ctxs[i].Query, ID: ctxs[i].Span, Start: int64(at), End: int64(d)})
		return 0, d, err
	})
	_ = res
	return done
}

// TracedFanOutBad reassigns the captured recorder inside a branch: clean
// for this rule — branches run in index order, so the write is ordered.
func (n *Node) TracedFanOutBad(peers []simnet.Addr, rec trace.Recorder, at simnet.VTime) {
	res, done := simnet.Parallel(len(peers), 4, func(i int) (int, simnet.VTime, error) {
		rec = nil
		_, d, err := n.net.Call(n.addr, peers[i], MethodPing, Ping{}, at)
		return 0, d, err
	})
	_, _ = res, done
}
