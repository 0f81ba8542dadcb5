package main

import "go/types"

// The two observability leaves — the tracing layer (internal/trace) and
// the flight recorder (internal/flight) — are sinks of the fabric's one
// message-leg stream: they ride along with wire messages without being part
// of the modeled protocol. The whole-program rules know their contract
// explicitly instead of deriving it:
//
//   - trace.TraceContext is zero-width wire metadata: its SizeBytes
//     returns 0 by contract so attributing a query can never change modeled
//     bytes, transfer delays or VTimes. The payload-size rule therefore
//     neither audits TraceContext's own SizeBytes nor requires payload
//     SizeBytes methods to mention TraceContext-typed fields.
//   - trace.TraceContext is wire-immutable: once placed on a message it is
//     never written through — child contexts are derived with Child. The
//     wireiso rule treats the type as carrying an implicit
//     //adhoclint:wireimmutable directive, which both accepts it in any
//     payload position and flags field writes to shared contexts.
//   - flight.Event is reference-free (strings and integers only), so it
//     is wire-safe wherever it appears; the wireiso rule needs no special
//     case for it, and the fixture pins that events in payload positions
//     stay accepted.

// tracePath is the import path of the tracing leaf.
func tracePath(modPath string) string { return modPath + "/internal/trace" }

// isTraceContext reports whether t is the module's trace.TraceContext,
// possibly behind a pointer.
func isTraceContext(t types.Type, modPath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamedType(t, tracePath(modPath), "TraceContext")
}
