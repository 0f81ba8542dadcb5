package dqp

import (
	"adhocshare/internal/overlay"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// The engine's own payloads. They travel on the data legs overlay names
// (MethodDispatch, MethodShip, MethodResult), each a one-way forward whose
// receiver takes ownership of the value: the engine goes on from what was
// delivered, never from the value it sent.

// dispatchPayload hands a pattern's sub-query to the index node that fans
// it out and assembles the replies (basic strategy), together with the
// partial solutions the replies are joined with there. The index node
// projects the keys itself, so on this leg the rows travel in their place.
type dispatchPayload struct {
	Sub  overlay.MatchReq
	Rows eval.Table
}

// TraceCtx implements trace.Carrier.
func (d dispatchPayload) TraceCtx() trace.TraceContext { return d.Sub.TC }

// SizeBytes implements simnet.Payload.
func (d dispatchPayload) SizeBytes() int {
	n := d.Sub.SizeBytes() + d.Rows.SizeBytes()
	for _, u := range d.Sub.Units {
		n -= u.Keys.SizeBytes()
	}
	return n
}

// rowsPayload carries solutions between sites, the one payload that moves
// them: dqp.ship for a chain's seeds to its last node, a merge's operands to
// the merge site and rows on their way to ORDER BY or LIMIT at the
// initiator, dqp.result for the query's result. It is charged what the same
// rows cost as mappings.
type rowsPayload struct {
	Rows eval.Table
	TC   trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (r rowsPayload) TraceCtx() trace.TraceContext { return r.TC }

// SizeBytes implements simnet.Payload.
func (r rowsPayload) SizeBytes() int { return r.Rows.SizeBytes() + r.TC.SizeBytes() }
