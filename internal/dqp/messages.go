package dqp

import (
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// RPC / transfer method names used by the distributed executor. They are
// distinct from overlay methods so experiments can attribute traffic:
// "dqp.dispatch" is sub-query shipping to an index node, "dqp.ship" is
// intermediate-result movement between sites, "dqp.result" is the final
// return to the initiator.
const (
	methodDispatch = "dqp.dispatch"
	methodShip     = "dqp.ship"
	methodResult   = "dqp.result"
)

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

// chainPayload is the message forwarded along a chain of target storage
// nodes: the sub-query (pattern plus pushed filter and the dataset scope a
// store.match request carries), the keys it is asked for, the distinct
// matches accumulated so far, and the remaining target sequence (Sect. IV-C
// optimization: "information on a sequence of target nodes that the query
// should be forwarded through"). Each hop is evaluated from these fields.
type chainPayload struct {
	Pattern rdf.Triple
	Filter  sparql.Expression
	Keys    eval.Table
	Acc     eval.Table
	Seq     []simnet.Addr
	Dataset []string
	// Graph and FromNamed are overlay.MatchReq's: the GRAPH scope and the
	// FROM NAMED graphs available to it.
	Graph     rdf.Term
	FromNamed []string
	// TC carries trace causality: each hop derives the next hop's context
	// from its own, so a traced chain renders as a linked list of message
	// spans (the Fig. 5 chained flow).
	TC trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (c chainPayload) TraceCtx() trace.TraceContext { return c.TC }

// SizeBytes implements simnet.Payload.
func (c chainPayload) SizeBytes() int {
	n := 8 + c.TC.SizeBytes() + c.Pattern.SizeBytes()
	if c.Filter != nil {
		n += len(c.Filter.String())
	}
	n += c.Keys.SizeBytes()
	n += c.Acc.SizeBytes()
	for _, a := range c.Seq {
		n += len(a)
	}
	for _, g := range c.Dataset {
		n += len(g)
	}
	if !c.Graph.IsZero() {
		n += c.Graph.SizeBytes()
	}
	for _, g := range c.FromNamed {
		n += len(g)
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
