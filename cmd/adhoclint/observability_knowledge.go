package main

import "go/types"

// The tracing leaf (internal/trace) is a sink of the fabric's one
// message-leg stream: it rides along with wire messages without being part
// of the modeled protocol. trace.TraceContext is zero-width wire metadata —
// its SizeBytes returns 0 by contract, so attributing a query can never
// change modeled bytes, transfer delays or VTimes — and the payload-size
// rule knows that explicitly: it neither audits TraceContext's own
// SizeBytes nor requires payload SizeBytes methods to mention
// TraceContext-typed fields.

// tracePath is the import path of the tracing leaf.
func tracePath(modPath string) string { return modPath + "/internal/trace" }

// isTraceContext reports whether t is the module's trace.TraceContext,
// possibly behind a pointer.
func isTraceContext(t types.Type, modPath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == tracePath(modPath) && named.Obj().Name() == "TraceContext"
}
