package wireiso

import (
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// MethodTraced ships a payload carrying zero-width trace metadata.
const MethodTraced = "iso.traced"

// TracedReq couples rows with a TraceContext. The context is implicitly
// wire-immutable (see observability_knowledge.go), so carrying it in any payload
// position is always wire-safe.
type TracedReq struct {
	Rows []Row
	TC   trace.TraceContext
}

func (r TracedReq) SizeBytes() int { return 16 * len(r.Rows) }

// PushTraced derives a child context per send and copies the rows: clean.
func (n *Node) PushTraced(to simnet.Addr, tc trace.TraceContext, at simnet.VTime) {
	n.net.Call(n.addr, to, MethodTraced, TracedReq{Rows: n.Rows(), TC: tc.Child(1)}, at)
}

// Restamp writes through a shared TraceContext instead of deriving a
// child: the implicit wireimmutable contract flags it like any
// documented-immutable type.
func Restamp(tc trace.TraceContext, q uint64) trace.TraceContext {
	tc.Query = q // want "documented-immutable"
	return tc
}

// Derive follows the contract: child contexts come from Child, and
// writing the fields of a freshly built context stays legal.
func Derive(tc trace.TraceContext) trace.TraceContext {
	fresh := trace.TraceContext{Query: tc.Query}
	fresh.Parent = tc.Span
	return fresh
}
