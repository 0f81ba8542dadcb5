package overlay

import (
	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// RPC method names. The "index." prefix marks two-level-index traffic, the
// "store." prefix marks sub-query execution traffic at storage nodes.
// Methods re-sent after lost messages say why re-executing their handler
// is safe; read-only handlers say nothing. TestWriteChainAcknowledgesFromTail
// loses each leg of a write chain, the acknowledgement included, and holds
// the rows to a rebuild; TestRoutedReadLossResendsWholeRead re-sends a
// routed read after a lost forward or reply.
// index.transfer is deliberately NOT retried: at Replication 1 its handler
// extracts rows destructively, so a reply-loss retry would observe an empty
// interval (at Replication ≥ 2 the successor keeps a copy as the joiner's
// replica).
const (
	// Re-deliveries are not applied again thanks to the per-publisher
	// shipment sequence number, so relative frequency deltas apply exactly
	// once, and re-forward the owner's absolute delta down the write
	// chain.
	MethodPutBatch = "index.put_batch"
	// Routing is a read plus the eviction of dead next hops, the owner's
	// read is side-effect-free and its adaptive tail only bumps an
	// advisory decayed counter, so a re-sent read converges to the same
	// state.
	MethodRoutedRead = "index.routed_read"
	MethodTransfer   = "index.transfer"
	MethodHandover   = "index.handover"
	// Dropping an already-dropped node's postings is a no-op; propagation
	// re-sends converge the replicas to the same state.
	MethodDropNode = "index.drop_node"
	// MethodReplica carries a ReplicaDelta one link down a write chain.
	// A delta sets each posting to the primary's absolute frequency and
	// pulls rows whole, so a re-run reaches the same rows.
	MethodReplica = "index.replicate"
	// MethodReplicaRepair pulls the rows a delta found stale (StaleKeys)
	// from the link before in the chain, answered whole (TableRows).
	MethodReplicaRepair = "index.replica_repair"
	// MethodHotLookup reads a hot key's row from the owner or a holder of
	// its replica rows (HotLookupReq).
	MethodHotLookup = "index.hot_lookup"

	MethodMatch = "store.match"
	// MethodChainHop is one hop of a chained sub-query (Sect. IV-C): a
	// ChainReq forwarded to the next target, which matches its one unit
	// and hands its table back for the accumulated matches.
	MethodChainHop = "store.chain"
)

// Query-engine data legs, one-way forwards whose receiver takes ownership
// of what was delivered. They are distinct from the methods above so
// experiments can attribute traffic: "dqp.dispatch" is sub-query shipping
// to an index node, "dqp.ship" intermediate-result movement between sites,
// "dqp.result" the final return to the initiator. A re-sent leg is taken
// over again, which changes nothing.
const (
	MethodDispatch = "dqp.dispatch"
	MethodShip     = "dqp.ship"
	MethodResult   = "dqp.result"
)

// intWidth is the wire width of an int field (frequency, count).
func intWidth(int) int { return 4 }

// boolWidth is the wire width of a boolean flag.
func boolWidth(bool) int { return 1 }

// PutBatchReq installs several postings for one storage node in a single
// message — publication batches all keys routed to the same index node.
// With Absolute set, each entry's Freq replaces the stored frequency
// instead of incrementing it (idempotent re-publication after recovery).
// It travels as a *PutBatchReq that stays the publisher's (shipBatch).
type PutBatchReq struct {
	Node     simnet.Addr
	Entries  []KeyFreq
	Absolute bool
	// Seq is the publisher's shipment sequence number (0 = none). Index
	// nodes remember the highest sequence applied per publisher and drop
	// re-deliveries, so a batch retried after a lost reply — when the
	// handler already ran — never double-counts relative frequencies.
	Seq uint64
	TC  trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (r PutBatchReq) TraceCtx() trace.TraceContext { return r.TC }

// seqWidth is the wire width of a shipment sequence number.
func seqWidth(uint64) int { return 8 }

// KeyFreq is one (key, frequency-delta) pair of a batch.
type KeyFreq struct {
	Key  chord.ID
	Freq int
}

// SizeBytes implements simnet.Payload. Each entry is one (ID, int) pair.
func (r PutBatchReq) SizeBytes() int {
	return len(r.Node) + 12*len(r.Entries) + boolWidth(r.Absolute) + seqWidth(r.Seq) + r.TC.SizeBytes()
}

// RoutedReadReq is a routed read of the location-table rows of one or more
// keys: it travels from the origin's ring entry point one hop at a time,
// each hop splitting it by next hop, until the predecessor of the keys'
// owner hands it on with Owned set — or, when the origin holds the keys'
// owner arc, the origin sends it to the owner with Owned set itself; the
// owner then answers Origin directly with a RoutedReadResp. Hops counts
// the forwards of the route that no other sub-read of the same read counts
// yet, and the owner's reply carries it back. Epoch, when non-zero, is the origin's stabilization epoch and
// opts the read into the adaptive hot-key machinery: the owner counts each
// key's lookup and may advertise a hot key's replica holders in its row. Keys
// is built per read by its origin, or per sub-read by the hop that split
// it, and never written afterwards.
type RoutedReadReq struct {
	Keys   []chord.ID
	Origin simnet.Addr
	Epoch  uint64
	Hops   int32 // with Owned, one word: each hop allocates a request
	Owned  bool
	TC     trace.TraceContext
}

// SizeBytes implements simnet.Payload. Every key is charged what a read of
// its own would cost: batching saves messages, never bytes.
func (r RoutedReadReq) SizeBytes() int {
	n := len(r.Origin) + intWidth(int(r.Hops)) + boolWidth(r.Owned) + r.TC.SizeBytes()
	for _, k := range r.Keys {
		n += k.SizeBytes()
		if r.Epoch != 0 {
			n += seqWidth(r.Epoch)
		}
	}
	return n
}

// TraceCtx implements trace.Carrier.
func (r RoutedReadReq) TraceCtx() trace.TraceContext { return r.TC }

// RoutedReadResp is an owner's reply to a routed read, sent straight to
// the origin: Rows[i] is the row of Keys[i], and Hops the forwards of the
// route this reply counts (a route prefix several owners' keys share is
// counted by one of their replies). Owner is the replying node. Keys and
// Rows are built per reply by its owner and never written after it answers.
type RoutedReadResp struct {
	Keys  []chord.ID
	Rows  []PostingsResp
	Hops  int
	Owner simnet.Addr
}

// SizeBytes implements simnet.Payload: each row is charged with its key.
func (r RoutedReadResp) SizeBytes() int {
	n := intWidth(r.Hops)
	for i, row := range r.Rows {
		n += r.Keys[i].SizeBytes() + row.SizeBytes()
	}
	return n
}

// PostingsResp carries a location-table row. Replicas/Epoch are the
// adaptive hot-key advertisement: the holders of the row's replica copies
// its owner's write chain writes, valid only while the initiator's epoch
// equals Epoch. Both stay zero on the static path, costing no wire bytes.
type PostingsResp struct {
	Postings []Posting
	Replicas []simnet.Addr
	Epoch    uint64
}

// SizeBytes implements simnet.Payload.
func (r PostingsResp) SizeBytes() int {
	n := 4
	for _, p := range r.Postings {
		n += p.SizeBytes()
	}
	for _, a := range r.Replicas {
		n += len(a)
	}
	if r.Epoch != 0 {
		n += seqWidth(r.Epoch)
	}
	return n
}

// HotLookupReq reads a hot key's row from a node that holds it. Digest
// is the rowDigest of the row the reader last had from the key's owner:
// the node answers only when its own row has that digest.
type HotLookupReq struct {
	Key    chord.ID
	Digest uint32
	TC     trace.TraceContext
}

// SizeBytes implements simnet.Payload: a key and a 4-byte digest.
func (r HotLookupReq) SizeBytes() int {
	return r.Key.SizeBytes() + 4 + r.TC.SizeBytes()
}

// TraceCtx implements trace.Carrier.
func (r HotLookupReq) TraceCtx() trace.TraceContext { return r.TC }

// HotPostingsResp answers a hot read. Hit=false means the node's row
// differs from the reader's (it missed a write, or the owner's row moved
// on since the reader's copy), and the reader must read the owner.
type HotPostingsResp struct {
	Hit      bool
	Postings []Posting
}

// SizeBytes implements simnet.Payload.
func (r HotPostingsResp) SizeBytes() int {
	n := boolWidth(r.Hit) + 4
	for _, p := range r.Postings {
		n += p.SizeBytes()
	}
	return n
}

// TransferReq asks the receiver to extract and return the location-table
// rows in the ring interval (From, To] — sent by a joining index node to
// its successor.
type TransferReq struct {
	From, To chord.ID
}

// SizeBytes implements simnet.Payload.
func (r TransferReq) SizeBytes() int { return r.From.SizeBytes() + r.To.SizeBytes() }

// ReplicaDelta is a put_batch's write down the owner's chain of replica
// holders: for every key the batch touched, the publisher Node's absolute
// frequency in the owner's row after the batch (0 = removed) and the digest
// of the whole row. Absolute values make re-delivery idempotent; a holder
// whose digest differs pulls the row from From, the link before it. Left
// counts the holders to write after the receiver (after the owner, in its
// own copy); the last acknowledges Node, traced as the response of TC, the
// context of the leg that brought the write.
type ReplicaDelta struct {
	Node    simnet.Addr
	From    simnet.Addr
	Entries []DeltaEntry
	Left    int
	TC      trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (r ReplicaDelta) TraceCtx() trace.TraceContext { return r.TC }

// holdersWidth is the wire width of a count of replica holders: one byte.
func holdersWidth(int) int { return 1 }

// DeltaEntry is one key of a ReplicaDelta.
type DeltaEntry struct {
	Key    chord.ID
	Freq   int
	Digest uint32
}

// SizeBytes implements simnet.Payload: each entry is a key, a frequency and
// a 4-byte digest.
func (r ReplicaDelta) SizeBytes() int {
	return len(r.Node) + holdersWidth(r.Left) + 16*len(r.Entries) + r.TC.SizeBytes()
}

// StaleKeys is a replica holder's index.replica_repair request: the keys
// whose digests in a ReplicaDelta disagree with its own rows. The link
// before it in the write chain answers with those rows whole, as TableRows.
type StaleKeys struct {
	Keys []chord.ID
}

// SizeBytes implements simnet.Payload.
func (r StaleKeys) SizeBytes() int { return 4 + 8*len(r.Keys) }

// TableRows carries location-table content (transfer, handover, replica
// repair).
type TableRows struct {
	Rows map[chord.ID][]Posting
}

// SizeBytes implements simnet.Payload.
func (t TableRows) SizeBytes() int {
	n := 4
	for _, row := range t.Rows {
		n += 8
		for _, p := range row {
			n += p.SizeBytes()
		}
	}
	return n
}

// DropNodeReq removes all postings of a (failed) storage node. With
// Propagate set, the receiving index node forwards the drop to its replica
// successors.
type DropNodeReq struct {
	Node      simnet.Addr
	Propagate bool
	TC        trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r DropNodeReq) SizeBytes() int {
	return len(r.Node) + boolWidth(r.Propagate) + r.TC.SizeBytes()
}

// TraceCtx implements trace.Carrier.
func (r DropNodeReq) TraceCtx() trace.TraceContext { return r.TC }

// MatchReq asks a storage node for its matches of one or more triple
// patterns, one unit per pattern, all under one dataset scope. The reply is
// a MatchResp with one table per unit, in unit order. A pattern evaluated on
// its own is a request of one unit; the BGPs of a query whose patterns leave
// the initiator together send each target one request carrying a unit for
// every pattern that lists it (Sect. IV-C basic: the patterns are evaluated
// in parallel).
type MatchReq struct {
	Units []MatchUnit
	// Dataset lists the FROM graph IRIs scoping the query's default graph
	// (nil = the union of everything each provider shares, Sect. IV-A).
	Dataset []string
	// FromNamed lists the FROM NAMED graph IRIs available to GRAPH
	// patterns (nil with a non-nil Dataset = none; nil with nil Dataset =
	// every named graph the provider shares).
	FromNamed []string
	// TC carries trace causality (wire-immutable, zero modeled bytes).
	TC trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (r MatchReq) TraceCtx() trace.TraceContext { return r.TC }

// SizeBytes implements simnet.Payload. Every unit is charged what it would
// cost as a request of its own, scope included: batching saves messages and
// hop latency, never bytes.
func (r MatchReq) SizeBytes() int {
	scope := 0
	for _, g := range r.Dataset {
		scope += len(g)
	}
	for _, g := range r.FromNamed {
		scope += len(g)
	}
	n := r.TC.SizeBytes()
	for _, u := range r.Units {
		n += 8 + u.SizeBytes() + scope
	}
	return n
}

// MatchUnit is one pattern of a MatchReq, asked once per key: Keys is the
// distinct projection of the partial solutions onto the variables the
// pattern shares with them (the unit key when there are none, or when the
// sender found the keys larger than the rows they could spare this node),
// and its reply is an eval.Table over the pattern's variables that the
// sender joins with the full rows it kept — the semi-join form of the
// in-network aggregation of Sect. IV-C. Filter, when non-nil, mentions only
// variables of the reply and is applied before it is returned — the shipped
// form of the pushed-down FILTER of Sect. IV-G. Graph scopes the pattern to
// a named graph: an IRI term selects it, a variable term iterates the
// provider's named graphs binding the variable; the zero Term means the
// (dataset-scoped) default graph.
type MatchUnit struct {
	Pattern rdf.Triple
	Filter  sparql.Expression
	Keys    eval.Table
	Graph   rdf.Term
}

// SizeBytes is the unit's wire size without the request's dataset scope.
func (u MatchUnit) SizeBytes() int {
	n := u.Pattern.SizeBytes() + u.Keys.SizeBytes()
	if u.Filter != nil {
		n += len(u.Filter.String())
	}
	if !u.Graph.IsZero() {
		n += u.Graph.SizeBytes()
	}
	return n
}

// ChainReq is a chain hop: the sub-query of one unit, the distinct matches
// accumulated so far and the targets it is still to be forwarded through
// (Sect. IV-C: "information on a sequence of target nodes that the query
// should be forwarded through"). The receiving node answers the unit's
// matches as an eval.Table; the sender adds them to the accumulation.
type ChainReq struct {
	Sub MatchReq
	Acc eval.Table
	Seq []simnet.Addr
}

// TraceCtx implements trace.Carrier: each hop's sub-query carries the hop's
// own context, derived from the previous hop's, so a traced chain renders
// as a linked list of message spans (the Fig. 5 chained flow).
func (r ChainReq) TraceCtx() trace.TraceContext { return r.Sub.TC }

// SizeBytes implements simnet.Payload.
func (r ChainReq) SizeBytes() int {
	n := r.Sub.SizeBytes() + r.Acc.SizeBytes()
	for _, a := range r.Seq {
		n += len(a)
	}
	return n
}

// MatchResp answers a MatchReq: Tables[i] holds the matches of Units[i].
type MatchResp struct {
	Tables []eval.Table
}

// SizeBytes implements simnet.Payload: each table is charged as the reply
// of a request of its own unit would be.
func (r MatchResp) SizeBytes() int {
	n := 0
	for _, t := range r.Tables {
		n += t.SizeBytes()
	}
	return n
}

// SolutionsResp is a solution multiset as mappings in a message. No engine
// message carries one any more — dqp ships eval.Tables — and it stays for
// the benchmark's simnet.call_ns.large row and the gob probe until the
// benchmark moves off it.
type SolutionsResp struct {
	Sols eval.Solutions
	TC   trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r SolutionsResp) SizeBytes() int { return r.Sols.SizeBytes() + r.TC.SizeBytes() }

// TraceCtx implements trace.Carrier.
func (r SolutionsResp) TraceCtx() trace.TraceContext { return r.TC }
