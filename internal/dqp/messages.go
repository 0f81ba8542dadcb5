package dqp

import (
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

// chainPayload is the message forwarded along a chain of target storage
// nodes: the sub-query (patterns plus pushed filter), the seed partial
// solutions being joined in-network, the accumulated matches so far, and
// the remaining target sequence (Sect. IV-C optimization: "information on
// a sequence of target nodes that the query should be forwarded through").
type chainPayload struct {
	Patterns []rdf.Triple
	Filter   sparql.Expression
	Seeds    eval.Solutions
	Acc      eval.Solutions
	Seq      []simnet.Addr
	Dataset  []string
	// TC carries trace causality: each hop derives the next hop's context
	// from its own, so a traced chain renders as a linked list of message
	// spans (the Fig. 5 chained flow).
	TC trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (c chainPayload) TraceCtx() trace.TraceContext { return c.TC }

// SizeBytes implements simnet.Payload.
func (c chainPayload) SizeBytes() int {
	n := 8 + c.TC.SizeBytes()
	for _, p := range c.Patterns {
		n += p.SizeBytes()
	}
	if c.Filter != nil {
		n += len(c.Filter.String())
	}
	n += c.Seeds.SizeBytes()
	n += c.Acc.SizeBytes()
	for _, a := range c.Seq {
		n += len(a)
	}
	for _, g := range c.Dataset {
		n += len(g)
	}
	return n
}
