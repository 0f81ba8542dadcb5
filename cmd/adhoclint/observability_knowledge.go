package main

import "go/types"

// The two observability leaves — the tracing layer (internal/trace) and
// the flight recorder (internal/flight) — are sinks of the fabric's one
// message-leg stream: they ride along with wire messages without being part
// of the modeled protocol. The whole-program rules know their contract
// explicitly instead of deriving it:
//
//   - Observation is fabric-neutral: trace.Recorder.Record and
//     flight.Recorder.Emit observe a leg but never move modeled bytes or
//     VTime, so the fabric-reach closure behind the alloc rule's hot set
//     stops at the two packages.
//   - Observation is hot-path-safe: span buffers and event rings are
//     preallocated at arm time and spans and events are all-value-type, so
//     the alloc rule treats callees in the two packages as reachability
//     barriers instead of flagging the ring bookkeeping inside them.
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

// tracePath and flightPath are the import paths of the two leaves.
func tracePath(modPath string) string  { return modPath + "/internal/trace" }
func flightPath(modPath string) string { return modPath + "/internal/flight" }

// isTraceContext reports whether t is the module's trace.TraceContext,
// possibly behind a pointer.
func isTraceContext(t types.Type, modPath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamedType(t, tracePath(modPath), "TraceContext")
}

// observabilityNeutral reports whether fn is declared in one of the two
// observability leaf packages, whose functions are fabric-neutral and
// hot-path-safe by the contracts above.
func observabilityNeutral(fn *types.Func, modPath string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == tracePath(modPath) || path == flightPath(modPath)
}
