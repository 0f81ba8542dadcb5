package dqp

import (
	"fmt"
	"time"

	"adhocshare/internal/simnet"
)

// Stats summarizes the cost of one distributed query execution. All
// network figures come from simnet accounting; ResponseTime is the virtual
// critical-path latency from submission to the final result arriving at
// the initiator.
type Stats struct {
	// Messages and Bytes cover every message the query caused, including
	// index lookups, sub-query shipping and result returns.
	Messages int64
	Bytes    int64
	// PerMethod breaks traffic down by RPC method.
	PerMethod map[string]simnet.MethodStats
	// ResponseTime is the virtual end-to-end latency.
	ResponseTime time.Duration
	// LookupHops is the number of Chord forwards the query's routed reads
	// made, as the owners' replies report them: a key read on its own
	// counts its FindSuccessor hops, and a read of several keys the
	// forwards the ring made for it, a route prefix several keys share
	// counted once. The hand-on from the owner's predecessor is not a hop,
	// and a read re-sent after a loss counts only the route that answered.
	// Keys read straight from an owner whose arc the initiator holds, or
	// served by the lookup cache or a hot read, count none.
	LookupHops int
	// Subqueries counts sub-query executions at storage nodes.
	Subqueries int
	// TargetsContacted is the number of distinct storage nodes that
	// executed sub-queries.
	TargetsContacted int
	// StaleDrops counts storage nodes found unreachable during execution
	// whose postings were dropped from index nodes (Sect. III-D timeout
	// cleanup).
	StaleDrops int
	// CacheHits counts index lookups answered from the initiator's
	// memoized location-table rows without touching the ring.
	CacheHits int
	// ReplicaHits counts index lookups served by a hot read — one call to
	// the nearest of the key's home and its replica holders — instead of
	// the home successor's read (Adaptive deployments only).
	ReplicaHits int
	// Solutions is the number of rows in the final result.
	Solutions int
}

// ShippedSolutionBytes sums the traffic of solution-carrying methods —
// the "intermediate results" volume the paper's optimizations minimize.
func (s Stats) ShippedSolutionBytes() int64 {
	var n int64
	for _, m := range []string{"store.match", "store.chain", "dqp.ship", "dqp.result"} {
		n += s.PerMethod[m].Bytes
	}
	return n
}

// IndexBytes sums the routing/lookup traffic of the two-level index.
func (s Stats) IndexBytes() int64 {
	var n int64
	for method, st := range s.PerMethod {
		if len(method) > 6 && method[:6] == "chord." || len(method) > 6 && method[:6] == "index." {
			n += st.Bytes
		}
	}
	return n
}

// RetractionBytes sums the traffic of the retraction path: the drop
// notifications that remove a stale provider's postings from index nodes
// (Sect. III-D timeout cleanup) during query execution.
func (s Stats) RetractionBytes() int64 {
	return s.PerMethod["index.drop_node"].Bytes
}

func (s Stats) String() string {
	return fmt.Sprintf("msgs=%d bytes=%d resp=%v hops=%d subq=%d targets=%d drops=%d cachehits=%d sols=%d",
		s.Messages, s.Bytes, s.ResponseTime, s.LookupHops, s.Subqueries,
		s.TargetsContacted, s.StaleDrops, s.CacheHits, s.Solutions)
}
