package overlay

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// Config parameterizes a hybrid overlay deployment.
type Config struct {
	// Bits is the identifier-circle width (default 32; Fig. 1 uses 4).
	Bits uint
	// Replication is the number of copies of each location-table posting
	// (default 2: primary plus one successor replica).
	Replication int
	// SerialPublish selects the paper's publication pipeline: per-key
	// FindSuccessor resolution and one PutBatch shipment at a time. The
	// default (false) resolves all keys with one batched FindSuccessor and
	// ships the per-owner batches in parallel; the serial path is retained
	// as the differential baseline for tests and the E2 comparison.
	SerialPublish bool
	// Adaptive enables workload-adaptive hot-key reads (default off):
	// index nodes count lookups per key with a decayed threshold and
	// advertise the holders of a hot key's replica rows, which adaptive
	// initiators (LookupClient) then read in place of the home successor,
	// digest-checked against the owner's last reply. The static path stays
	// byte-identical with the knob off. The detector's threshold and
	// half-life are the constants of hot.go.
	Adaptive bool
	// Net is the simulated network cost model.
	Net simnet.Config
}

func (c Config) withDefaults() Config {
	if c.Bits == 0 || c.Bits > 64 {
		c.Bits = 32
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	return c
}

// System assembles and operates one hybrid overlay: the Chord ring of
// index nodes plus the storage nodes attached to them. It exists on the
// "operator" side of the simulation — nodes still only interact through
// simnet messages; System just tracks membership and drives maintenance.
type System struct {
	cfg Config
	net *simnet.Network

	mu      lockcheck.RWMutex
	index   map[simnet.Addr]*IndexNode
	storage map[simnet.Addr]*StorageNode
	// epoch is the stabilization epoch: it advances whenever ring
	// maintenance or membership changes may have moved key ownership, and
	// bounds the validity of the storage nodes' owner arcs.
	epoch uint64
	// converged is set by Converge and cleared by FailNode, RecoverNode, a
	// join abandoned after its ring join and a failed repair: while it
	// holds, the ring is the ideal ring, and a graceful join or leave
	// repairs only the pointers it moved and moves one owner arc (see
	// converge and bumpEpoch).
	converged bool
	// traceSeq allocates deterministic trace identifiers: operations issued
	// in the same order get the same IDs, so seeded runs trace identically.
	traceSeq uint64
	// pubSeq allocates shipment sequence numbers for PutBatch deduplication.
	// The counter is shared by all publishers of the deployment but strictly
	// increasing, so each publisher's shipment stream is monotone — the
	// property the index nodes' duplicate suppression relies on. Sequence
	// values are never serialized into modeled payload sizes (seqWidth is
	// fixed), so VTimes stay identical whatever values the counter hands out.
	pubSeq uint64
}

// NewSystem creates an empty deployment.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	return &System{
		cfg:     cfg,
		net:     simnet.New(cfg.Net),
		index:   map[simnet.Addr]*IndexNode{},
		storage: map[simnet.Addr]*StorageNode{},
	}
}

// Net exposes the underlying simulated network (for metrics and failure
// injection).
func (s *System) Net() *simnet.Network { return s.net }

// NextTraceID allocates the identifier of a new trace (a query or a system
// operation). IDs come from a per-deployment counter, not a clock, so a
// seeded run always numbers its traces identically.
func (s *System) NextTraceID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceSeq++
	return s.traceSeq
}

// traceOp opens a trace for one system-level operation when a recorder is
// attached. It returns the root context to thread through the operation's
// messages and a finish hook recording the op span over the charged
// interval; with tracing disabled both are zero and nothing allocates.
func (s *System) traceOp(name string, node simnet.Addr) (trace.TraceContext, func(start, end simnet.VTime)) {
	rec := s.net.Recorder()
	if rec == nil {
		return trace.TraceContext{}, nil
	}
	tc := trace.Root(s.NextTraceID())
	return tc, func(start, end simnet.VTime) {
		rec.Record(trace.Span{
			Query: tc.Query,
			ID:    tc.Span,
			Kind:  trace.KindOp,
			Name:  name,
			From:  string(node),
			Start: int64(start),
			End:   int64(end),
		})
	}
}

// nextPubSeq allocates one PutBatch shipment sequence number.
//
// PutBatch dedup needs only monotone sequence numbers, so a number wasted by a
// failed shipment is harmless.
func (s *System) nextPubSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pubSeq++
	return s.pubSeq
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// AddIndexNode creates an index node whose ring identifier is the hash of
// its address and joins it to the ring. It returns the node and the
// virtual completion time.
func (s *System) AddIndexNode(addr simnet.Addr, at simnet.VTime) (*IndexNode, simnet.VTime, error) {
	return s.AddIndexNodeWithID(addr, chord.HashID(string(addr), s.cfg.Bits), at)
}

// ErrDuplicateID refuses an index node a ring identifier a deployed one
// has: the ring would route a key to two owners.
var ErrDuplicateID = errors.New("overlay: ring identifier already taken")

// AddIndexNodeWithID creates an index node with an explicit identifier
// (used to reconstruct the paper's Fig. 1 topology), joins it to the ring,
// brings the ring back to its ideal state (converge: on a converged ring
// only the pointers the join moved) and pulls the node's slice of the
// location table. An identifier a deployed index node has is refused with
// ErrDuplicateID before anything changes. The node is entered into the
// deployment before the ring join so concurrent reads see it; a failed join
// removes and deregisters it again before the error surfaces.
func (s *System) AddIndexNodeWithID(addr simnet.Addr, id chord.ID, at simnet.VTime) (*IndexNode, simnet.VTime, error) {
	s.mu.Lock()
	if _, dup := s.index[addr]; dup {
		s.mu.Unlock()
		return nil, at, fmt.Errorf("overlay: index node %s already exists", addr)
	}
	for _, other := range s.index {
		if other.ID() == id {
			s.mu.Unlock()
			return nil, at, fmt.Errorf("%w: %v is %s's", ErrDuplicateID, id, other.Addr())
		}
	}
	bootstrap := s.liveIndexLocked()
	n := NewIndexNode(s.net, addr, id, chord.Config{Bits: s.cfg.Bits}, s.cfg.Replication, s.cfg.Adaptive)
	s.index[addr] = n
	s.mu.Unlock()

	now := at
	if bootstrap == "" {
		n.Chord.Create()
		return n, now, nil
	}
	n.awaitTransfer()
	done, err := n.Chord.Join(bootstrap, now)
	now = done
	if err != nil {
		s.evictIndexNode(addr)
		return nil, now, err
	}
	now = s.converge(now, "join", n.Chord)
	// Pull the location-table slice this node is now responsible for
	// (Sect. III-C).
	done, err = n.JoinTransfer(now)
	now = done
	if err != nil {
		s.evictIndexNode(addr)
		return nil, now, err
	}
	return n, now, nil
}

// evictIndexNode compensates a failed index-node join: the half-joined
// node is deleted from the deployment and its handler deregistered, so
// the deployment returns to its pre-join state.
func (s *System) evictIndexNode(addr simnet.Addr) {
	s.mu.Lock()
	delete(s.index, addr)
	s.converged = false // ring pointers may still name the node
	s.mu.Unlock()
	s.net.Deregister(addr)
}

// AddStorageNode creates a storage node attached to the index node that is
// the Chord successor of the storage node's hashed address (any attachment
// rule works; this one is deterministic). The node starts empty — call
// Publish to share triples.
func (s *System) AddStorageNode(addr simnet.Addr, at simnet.VTime) (*StorageNode, simnet.VTime, error) {
	attach, _, now, err := s.ResolveKey(addr, chord.HashID(string(addr), s.cfg.Bits), at)
	if err != nil {
		return nil, now, fmt.Errorf("overlay: attach lookup: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.storage[addr]; dup {
		return nil, now, fmt.Errorf("overlay: storage node %s already exists", addr)
	}
	n := NewStorageNode(s.net, addr, attach)
	s.storage[addr] = n
	return n, now, nil
}

// Publish adds triples to the storage node's local graph and installs the
// six index keys per triple in the distributed index (Sect. III-B),
// batching all keys that land on the same index node into one message.
// It returns the virtual completion time.
//
// A failed installation un-adds the new triples so graph and index stay
// consistent; postings already installed elsewhere are over-approximating
// hints that local matching filters and Republish repairs.
func (s *System) Publish(storage simnet.Addr, triples []rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	node, err := s.storageNode(storage)
	if err != nil {
		return at, err
	}
	return s.editShared(node, node.Graph, false, "overlay.publish", triples, at)
}

// PublishGraph adds triples to one of the storage node's *named* graphs
// (Sect. IV-A datasets) and installs their index keys. Postings do not
// distinguish graphs: lookups over-approximate and the FROM restriction is
// applied at the provider during local matching.
//
// A failed installation un-adds the new triples from the named graph; leftover
// remote postings are over-approximating hints.
func (s *System) PublishGraph(storage simnet.Addr, graphIRI string, triples []rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	node, err := s.storageNode(storage)
	if err != nil {
		return at, err
	}
	return s.editShared(node, node.NamedGraph(graphIRI), false, "overlay.publish_graph", triples, at)
}

// Retract removes triples from the storage node and decrements the index
// frequencies.
//
// A failed decrement re-adds the removed triples; Republish repairs any owner
// whose decrement had already applied.
func (s *System) Retract(storage simnet.Addr, triples []rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	node, err := s.storageNode(storage)
	if err != nil {
		return at, err
	}
	return s.editShared(node, node.Graph, true, "overlay.retract", triples, at)
}

// storageNode returns a storage node by address, or the error every
// publication entry point reports for an unknown one.
func (s *System) storageNode(addr simnet.Addr) (*StorageNode, error) {
	node, ok := s.Storage(addr)
	if !ok {
		return nil, fmt.Errorf("overlay: unknown storage node %s", addr)
	}
	return node, nil
}

// editShared is the one body of Publish, PublishGraph and Retract: it adds
// the triples to g (one of node's graphs) or removes them, and ships the
// frequency deltas of the triples that changed g — a triple already
// present, or already absent, is not re-indexed — as the op span named op.
//
// A failed installation applies the inverse edit to every triple that changed
// the graph.
func (s *System) editShared(node *StorageNode, g *rdf.Graph, remove bool, op string, triples []rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	delta := 1
	if remove {
		delta = -1
	}
	var stack [int(numKeyKinds) * editOnStack]chord.ID
	ids := stack[:0]
	changed := make([]rdf.Triple, 0, len(triples))
	keys := newKeyMemo(s.cfg.Bits)
	for _, t := range triples {
		if !editGraph(g, t, remove) {
			continue
		}
		changed = append(changed, t)
		tk := keys.tripleKeys(t)
		ids = append(ids, tk[:]...)
	}
	keys.release()
	node.InvalidateViews()
	tc, finish := s.traceOp(op, node.addr)
	done, err := s.installPostingsMode(node, sumKeyFreqs(ids, delta), false, tc, at)
	if finish != nil {
		finish(at, done)
	}
	if err != nil {
		for _, t := range changed {
			editGraph(g, t, !remove)
		}
		node.InvalidateViews()
	}
	return done, err
}

// editGraph removes t from g or adds it, and reports whether g changed.
func editGraph(g *rdf.Graph, t rdf.Triple, remove bool) bool {
	if remove {
		return g.Remove(t)
	}
	return g.Add(t)
}

// Republish reinstalls the index postings for everything the storage node
// currently shares, with absolute (idempotent) frequencies — the recovery
// step for a provider whose postings were dropped while it was crashed
// (Sect. III-D). Repeating it is harmless.
func (s *System) Republish(storage simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	node, err := s.storageNode(storage)
	if err != nil {
		return at, err
	}
	var ids []chord.ID
	keys := keyMemo{s.cfg.Bits, map[unaryTerm]chord.ID{}} // a whole graph's: too large to pool
	count := func(g *rdf.Graph) {
		ts := g.Triples()
		ids = slices.Grow(ids, int(numKeyKinds)*len(ts))
		for _, t := range ts {
			tk := keys.tripleKeys(t)
			ids = append(ids, tk[:]...)
		}
	}
	count(node.Graph)
	for _, name := range node.GraphNames() {
		count(node.NamedGraph(name))
	}
	tc, finish := s.traceOp("overlay.republish", storage)
	done, err := s.installPostingsMode(node, sumKeyFreqs(ids, 1), true, tc, at)
	if finish != nil {
		finish(at, done)
	}
	return done, err
}

// editOnStack is the largest edit, in triples, whose keys editShared
// collects in a stack buffer (6 KiB); a larger edit's keys spill to the
// heap, one allocation more.
const editOnStack = 128

// sumKeyFreqs sorts an edit's keys and returns one entry per distinct key,
// in ascending key order, whose Freq is the key's count times delta. Every
// key of an edit moves by the same delta — +1 for a publication, −1 for a
// retraction, 1 for Republish's absolute counts — so the bare keys are
// sorted, and the entries are built from their runs.
func sumKeyFreqs(ids []chord.ID, delta int) []KeyFreq {
	slices.Sort(ids)
	runs := 0
	for i := range ids {
		if i == 0 || ids[i] != ids[i-1] {
			runs++
		}
	}
	out := make([]KeyFreq, 0, runs)
	for i, key := range ids {
		if n := len(out); n > 0 && key == ids[i-1] {
			out[n-1].Freq += delta
		} else {
			out = append(out, KeyFreq{Key: key, Freq: delta})
		}
	}
	return out
}

// installPostingsMode resolves the responsible index node for every key of
// entries — one per distinct key, in ascending key order (sumKeyFreqs) —
// via the storage node's attachment point, and ships one batch per index
// node.
func (s *System) installPostingsMode(node *StorageNode, entries []KeyFreq, absolute bool, tc trace.TraceContext, at simnet.VTime) (simnet.VTime, error) {
	if len(entries) == 0 {
		return at, nil
	}
	if s.cfg.SerialPublish {
		return s.installPostingsSerial(node, entries, absolute, tc, at)
	}
	return s.installPostingsParallel(node, entries, absolute, tc, at)
}

// installPostingsSerial is the paper's serial pipeline, E2's comparison arm:
// keys resolved one blocking FindSuccessor at a time, then one PutBatch per
// owner, each waiting for the previous — the ingest critical path grows
// linearly with key count.
func (s *System) installPostingsSerial(node *StorageNode, entries []KeyFreq, absolute bool, tc trace.TraceContext, at simnet.VTime) (simnet.VTime, error) {
	owners := make([]simnet.Addr, len(entries))
	now := at
	for ki, e := range entries {
		owner, _, done, err := s.ResolveKeyTraced(node.addr, e.Key, tc.Child(uint64(ki)), now)
		now = done
		if err != nil {
			return now, fmt.Errorf("overlay: resolve key %v: %w", e.Key, err)
		}
		owners[ki] = owner
	}
	ownerList, batches := ownerBatches(owners, entries)
	for oi, owner := range ownerList {
		// Trace children for shipments start past the key indexes so resolve
		// and ship spans never collide.
		done, err := s.shipBatch(owner, &PutBatchReq{Node: node.addr, Entries: batches[oi], Absolute: absolute,
			Seq: s.nextPubSeq(), TC: tc.Child(uint64(len(entries) + oi))}, now)
		now = done
		if err != nil {
			return now, fmt.Errorf("overlay: install postings at %s: %w", owner, err)
		}
	}
	return now, nil
}

// installPostingsParallel is the batched pipeline. A key in an owner arc
// the storage node holds for this epoch — learned in it, or carried into
// it past a graceful join or leave that did not move it — goes straight to
// that owner, if it is alive; the other keys are resolved by one batched
// FindSuccessor (the ring fans the batch out along shared route prefixes),
// whose reply teaches their owners' arcs. Then every per-owner PutBatch
// ships in parallel. The virtual completion time is the critical path —
// resolution, then the max over the owner shipments — per the DESIGN §5
// rule; an owner known by its arc ships at `at`. The edit's requests share
// one backing array and go out by pointer (DESIGN §5).
func (s *System) installPostingsParallel(node *StorageNode, entries []KeyFreq, absolute bool, tc trace.TraceContext, at simnet.VTime) (simnet.VTime, error) {
	epoch := s.Epoch()
	owners := make([]simnet.Addr, len(entries))
	missing := 0
	for i, e := range entries {
		if owners[i] = node.liveOwner(epoch, e.Key); owners[i] == "" {
			missing++
		}
	}
	var resolved []chord.Ref // the owners the resolve named, one per unowned key
	resolveDone := at
	if missing > 0 {
		unresolved := make([]chord.ID, 0, missing)
		for i, a := range owners {
			if a == "" {
				unresolved = append(unresolved, entries[i].Key)
			}
		}
		found, done, err := s.ResolveKeys(node.addr, unresolved, tc.Child(0), at)
		if err != nil {
			return done, fmt.Errorf("overlay: resolve %d keys: %w", len(unresolved), err)
		}
		node.learnArcs(epoch, found.Arcs)
		resolved, resolveDone = found.Nodes, done
		j := 0
		for i, a := range owners {
			if a == "" {
				owners[i] = resolved[j].Addr
				j++
			}
		}
	}
	ownerList, batches := ownerBatches(owners, entries)
	reqs := make([]PutBatchReq, len(ownerList))
	// Every owner shipment must land: unreachable owners get one
	// successor-fallback round below, and any remaining failure aborts the
	// publication, which the callers compensate.
	results, done := simnet.Parallel(len(ownerList), 0, func(i int) (simnet.Payload, simnet.VTime, error) {
		// Branches run in sorted-owner order, so sequence numbers follow
		// it; the trace child is the branch index (seq 0 is the batch
		// resolve above). A batch to an owner the resolve named leaves
		// when the resolve is done.
		owner, start := ownerList[i], at
		if slices.ContainsFunc(resolved, func(r chord.Ref) bool { return r.Addr == owner }) {
			start = resolveDone
		}
		reqs[i] = PutBatchReq{Node: node.addr, Entries: batches[i], Absolute: absolute,
			Seq: s.nextPubSeq(), TC: tc.Child(uint64(i + 1))}
		done, err := s.shipBatch(owner, &reqs[i], start)
		return nil, done, err
	})
	done = simnet.MaxTime(at, resolveDone, done)
	// Owners that died between resolution and shipment get one fallback
	// round: the ring has promoted their successors, so re-resolve the
	// affected keys and re-ship. Any other failure aborts the publication.
	stale := 0
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, simnet.ErrUnreachable) {
			return done, fmt.Errorf("overlay: install postings at %s: %w", ownerList[i], r.Err)
		}
		stale += len(batches[i])
	}
	if stale == 0 {
		return done, nil
	}
	lost := make([]KeyFreq, 0, stale)
	for i, r := range results {
		if r.Err != nil {
			lost = append(lost, batches[i]...)
		}
	}
	return s.reshipPostings(node, lost, uint64(len(ownerList)+1), absolute, tc, done)
}

// reshipPostings is installPostingsParallel's successor-fallback round: the
// entries of the batches addressed to now unreachable owners are
// re-resolved with one batched FindSuccessor and re-shipped serially to
// whoever owns the keys now. tcBase offsets the trace children past the
// main round's.
func (s *System) reshipPostings(node *StorageNode, entries []KeyFreq, tcBase uint64, absolute bool, tc trace.TraceContext, at simnet.VTime) (simnet.VTime, error) {
	node.dropArcs()
	targets := make([]chord.ID, len(entries))
	for i, e := range entries {
		targets[i] = e.Key
	}
	found, now, err := s.ResolveKeys(node.addr, targets, tc.Child(tcBase), at)
	if err != nil {
		return now, fmt.Errorf("overlay: re-resolve %d keys: %w", len(targets), err)
	}
	owners := make([]simnet.Addr, len(entries))
	for i := range entries {
		owners[i] = found.Nodes[i].Addr
	}
	ownerList, batches := ownerBatches(owners, entries)
	for oi, owner := range ownerList {
		done, err := s.shipBatch(owner, &PutBatchReq{Node: node.addr, Entries: batches[oi], Absolute: absolute,
			Seq: s.nextPubSeq(), TC: tc.Child(tcBase + 1 + uint64(oi))}, now)
		now = done
		if err != nil {
			return now, fmt.Errorf("overlay: install postings at %s: %w", owner, err)
		}
	}
	return now, nil
}

// writeAttempts is a put_batch's send budget. A loss on any of a write
// chain's R + 1 legs costs the whole send, so k sends fail with probability
// about ((R+1)·p)^k: k = 5 stays under the (2p)³ of the publisher-owner call
// it replaced up to R = 3 at p ≤ 5% (3.2e-4 against 1.0e-3; k = 3: 8.0e-3).
const writeAttempts = 5

// shipBatch sends req to owner, which writes it down its write chain
// (IndexNode.replicate), and returns when the chain's last link acknowledged
// it: R + 1 legs at Replication R. A lost leg costs the publisher FailTimeout
// from its departure and a re-send under the same Seq, up to writeAttempts
// sends in all. An owner found down returns ErrUnreachable.
//
// A re-sent batch is safe: the owner applies a Seq once and re-forwards its
// absolute delta on every re-delivery, so the batch reaches the same rows.
// Every send passes the same req, which no handler writes through.
func (s *System) shipBatch(owner simnet.Addr, req *PutBatchReq, at simnet.VTime) (simnet.VTime, error) {
	var err error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		var done simnet.VTime
		if _, done, err = s.net.Forward(req.Node, owner, MethodPutBatch, req, "", at); !simnet.IsLost(err) {
			return done, err
		}
		at = simnet.MaxTime(at.Add(s.net.Config().FailTimeout), done)
	}
	return at, fmt.Errorf("%w (after %d attempts)", err, writeAttempts)
}

// ownerBatches lays entries out by owner — entries[i] is owners[i]'s — in
// one backing slice. It returns the owners, sorted, and their batches:
// sub-slices of the backing, each in entry order. An edit's keys are
// sorted, so its owners come in runs, and the work is per run.
func ownerBatches(owners []simnet.Addr, entries []KeyFreq) ([]simnet.Addr, [][]KeyFreq) {
	runs := 0
	for i := range owners {
		if i == 0 || owners[i] != owners[i-1] {
			runs++
		}
	}
	list := make([]simnet.Addr, 0, runs)
	for i, owner := range owners {
		if i == 0 || owner != owners[i-1] {
			list = append(list, owner)
		}
	}
	slices.Sort(list)
	list = slices.Compact(list)
	sizes := make([]int, len(list))
	forRuns(owners, list, func(j, n int) { sizes[j] += n })
	backing := make([]KeyFreq, len(owners))
	batches := make([][]KeyFreq, len(list))
	off := 0
	for j, n := range sizes {
		batches[j] = backing[off : off : off+n]
		off += n
	}
	i := 0
	forRuns(owners, list, func(j, n int) {
		for end := i + n; i < end; i++ {
			batches[j] = append(batches[j], entries[i])
		}
	})
	return list, batches
}

// forRuns calls run(j, n) for each run of n equal owners in turn, j the
// owner's index in the sorted list.
func forRuns(owners, list []simnet.Addr, run func(j, n int)) {
	for i := 0; i < len(owners); {
		n := 1
		for i+n < len(owners) && owners[i+n] == owners[i] {
			n++
		}
		j, _ := slices.BinarySearch(list, owners[i])
		run(j, n)
		i += n
	}
}

// ResolveKey routes a key to its responsible index node starting from any
// node (storage nodes route via their attachment point, index nodes via
// themselves). It returns the owner address, the Chord hop count and the
// virtual completion time.
func (s *System) ResolveKey(from simnet.Addr, key chord.ID, at simnet.VTime) (simnet.Addr, int, simnet.VTime, error) {
	return s.ResolveKeyTraced(from, key, trace.TraceContext{}, at)
}

// ResolveKeyTraced is ResolveKey with the lookup's messages attributed to
// a trace: tc is the context of the FindSuccessor request itself.
func (s *System) ResolveKeyTraced(from simnet.Addr, key chord.ID, tc trace.TraceContext, at simnet.VTime) (simnet.Addr, int, simnet.VTime, error) {
	entry := s.entryFor(from)
	if entry == "" {
		return "", 0, at, fmt.Errorf("overlay: node %s has no ring entry point", from)
	}
	resp, done, err := s.net.CallRetry(from, entry, chord.MethodFindSuccessor, chord.FindReq{Target: key, TC: tc}, at)
	if err != nil {
		return "", 0, done, err
	}
	fr := resp.(chord.FindResp)
	return fr.Node.Addr, fr.Hops, done, nil
}

// ResolveKeys routes several keys to their responsible index nodes with one
// find_successor_batch sent from `from` to its ring entry point, tc being
// the batch request's context; found.Nodes[i] owns keys[i], and found.Arcs
// are the owner arcs the answering nodes vouched for. The ring forwards
// one sub-batch per next hop, so a route prefix the keys share is walked
// once, and a next hop that is down falls back to routing its keys one by
// one. keys goes on the wire as it is: the caller must not write it
// afterwards.
func (s *System) ResolveKeys(from simnet.Addr, keys []chord.ID, tc trace.TraceContext, at simnet.VTime) (chord.BatchFindResp, simnet.VTime, error) {
	entry := s.entryFor(from)
	if entry == "" {
		return chord.BatchFindResp{}, at, fmt.Errorf("overlay: node %s has no ring entry point", from)
	}
	resp, done, err := s.net.CallRetry(from, entry, chord.MethodFindSuccessorBatch,
		chord.BatchFindReq{Targets: keys, TC: tc}, at)
	if err != nil {
		return chord.BatchFindResp{}, done, err
	}
	return resp.(chord.BatchFindResp), done, nil
}

// entryFor returns the ring entry point for a node address: itself for an
// index node, the attachment point for a storage node — re-homed to a live
// ring member once it died — or any live index node otherwise (external
// query initiators, a storage node's attach lookup). Every resolution,
// publication's included, enters the ring here.
func (s *System) entryFor(from simnet.Addr) simnet.Addr {
	s.mu.RLock()
	_, isIndex := s.index[from]
	st := s.storage[from]
	s.mu.RUnlock()
	switch {
	case isIndex:
		return from
	case st == nil:
		return s.anyIndexAddr()
	}
	if a := st.AttachedTo(); s.net.Alive(a) {
		return a
	}
	return st.rehome(s.anyIndexAddr())
}

func (s *System) anyIndexAddr() simnet.Addr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveIndexLocked()
}

// liveIndexLocked returns the smallest live index address ("" when none is
// alive); the caller holds s.mu. Any live member would do as a ring entry
// point, but the pick decides where a routing walk starts — and with it
// every VTime downstream — so it must not depend on map order.
func (s *System) liveIndexLocked() simnet.Addr {
	var pick simnet.Addr
	for a := range s.index {
		if s.net.Alive(a) && (pick == "" || a < pick) {
			pick = a
		}
	}
	return pick
}

// IndexNodes returns the index nodes sorted by ring identifier.
func (s *System) IndexNodes() []*IndexNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*IndexNode, 0, len(s.index))
	for _, n := range s.index {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// StorageNodes returns the storage nodes sorted by address.
func (s *System) StorageNodes() []*StorageNode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*StorageNode, 0, len(s.storage))
	for _, n := range s.storage {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Storage returns a storage node by address.
func (s *System) Storage(addr simnet.Addr) (*StorageNode, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.storage[addr]
	return n, ok
}

// Index returns an index node by address.
func (s *System) Index(addr simnet.Addr) (*IndexNode, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.index[addr]
	return n, ok
}

// Epoch returns the current stabilization epoch. Every maintenance round
// and membership event bumps it; the owner arcs outlive a bump only if the
// bump's event provably moved no more than the providers can rewrite: a
// graceful join or leave on a converged ring moves one arc, which each
// provider splits or merges, and a Converge or StabilizeRound that moved no
// live member's predecessor or successor moves none (bumpEpoch, DESIGN §5).
func (s *System) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// bumpEpoch advances the stabilization epoch and flight-records the bump
// at the virtual time of the maintenance event that caused it (operator
// actions such as FailNode happen outside virtual time and pass 0). mover
// is the index node whose graceful join or leave caused the bump, zero for
// any other cause; repair is what the event's repair touched — empty for a
// round that moved nothing — and nil when the event may have moved any key.
// A repaired event moved one owner arc (Sect. III-C/D): a join takes the
// part of the arc containing the mover's ID up to it, a leave hands the
// mover's arc to its successor. Every storage node then carries its arcs
// into the new epoch with that arc split or merged (keepArcs); a round that
// moved nothing carries every arc, and after any other bump no arc
// survives.
func (s *System) bumpEpoch(at simnet.VTime, cause string, mover chord.Ref, repair *chord.Repair) {
	s.mu.Lock()
	s.epoch++
	epoch := s.epoch
	s.mu.Unlock()
	if repair != nil {
		for _, n := range s.StorageNodes() {
			n.keepArcs(epoch, mover, cause == "join")
		}
	}
	if flt := s.net.FlightRecorder(); flt != nil {
		moved := "everything"
		switch {
		case repair != nil && mover.IsZero():
			moved = "nothing"
		case repair != nil:
			moved = "1 arc, " + strconv.Itoa(repair.Lists) + " lists, " + strconv.Itoa(repair.Fingers) + " fingers"
		}
		note := cause + " (" + moved + ")"
		if !mover.IsZero() {
			// a graceful join or leave bumps once the ring is converged again
			note = "converge (" + cause + " " + string(mover.Addr) + ": " + moved + ")"
		}
		flt.Emit(flight.Event{Node: "system", Kind: flight.KindEpochBump,
			VT: int64(at), End: int64(at),
			Note: note + " -> epoch " + strconv.FormatUint(epoch, 10)})
	}
}

// setConverged records whether the ring has converged since the last
// crash, recovery, abandoned join or failed repair.
func (s *System) setConverged(converged bool) {
	s.mu.Lock()
	s.converged = converged
	s.mu.Unlock()
}

// Converge runs Chord stabilization on the index ring until it is the ideal
// ring: predecessors, successor lists and finger tables all exact. It bumps
// the epoch, keeping every owner arc if no live member's predecessor or
// successor moved.
func (s *System) Converge(at simnet.VTime) simnet.VTime {
	return s.converge(at, "converge", nil)
}

// converge brings the ring back to its ideal state after the graceful join
// or leave (cause) of mover, or, with mover nil, on its own, and bumps the
// epoch. On a converged ring a graceful event repairs only the pointers it
// moved (chord.RepairJoin, chord.RepairLeave, DESIGN §5); a repair leg that
// fails leaves the ring unconverged, so the next event converges fully.
// Anything else runs the full chord.Converge, which keeps every arc only
// when it ran on its own and moved no predecessor or successor.
func (s *System) converge(at simnet.VTime, cause string, mover *chord.Node) simnet.VTime {
	var ref chord.Ref
	if mover != nil {
		ref = mover.Ref()
	}
	s.mu.RLock()
	repairable := s.converged && mover != nil
	s.mu.RUnlock()
	if !repairable {
		done := s.maintain(at, cause, ref, chord.Converge)
		s.setConverged(true)
		return done
	}
	repair := chord.RepairJoin
	if cause == "leave" {
		repair = chord.RepairLeave
	}
	moved, done, err := repair(s.chordNodes(), mover, at)
	kept := &moved
	if err != nil {
		s.setConverged(false)
		kept = nil
	}
	s.bumpEpoch(done, cause, ref, kept)
	return done
}

// StabilizeRound runs one periodic maintenance round on all live index
// nodes; it bumps the epoch, keeping every arc if no ring pointer moved.
func (s *System) StabilizeRound(at simnet.VTime) simnet.VTime {
	return s.maintain(at, "stabilize", chord.Ref{}, chord.StabilizeRound)
}

// maintain runs round on the ring and bumps the epoch for cause and mover.
// A round of its own that left every live member's predecessor and
// successor in place moved no key, so every owner arc carries over.
func (s *System) maintain(at simnet.VTime, cause string, mover chord.Ref, round func([]*chord.Node, simnet.VTime) simnet.VTime) simnet.VTime {
	nodes := s.chordNodes()
	before := s.neighbours(nodes)
	done := round(nodes, at)
	var kept *chord.Repair
	if mover.IsZero() && before != nil && slices.Equal(before, s.neighbours(nodes)) {
		kept = &chord.Repair{} // nothing moved
	}
	s.bumpEpoch(done, cause, mover, kept)
	return done
}

// neighbours snapshots every ring member's predecessor and successor, in
// the order of nodes, or returns nil when a live member has no
// predecessor. A member's predecessor bounds the keys it owns and its
// successor is the owner its arc names; while a recovered member rejoins,
// either can move without the other. A round leaves a member that is down
// as it is.
func (s *System) neighbours(nodes []*chord.Node) []chord.Ref {
	out := make([]chord.Ref, 0, 2*len(nodes))
	for _, n := range nodes {
		pred := n.Predecessor()
		if pred.IsZero() && s.net.Alive(n.Addr()) {
			return nil
		}
		out = append(out, pred, n.Successor())
	}
	return out
}

func (s *System) chordNodes() []*chord.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*chord.Node, 0, len(s.index))
	addrs := make([]simnet.Addr, 0, len(s.index))
	for a := range s.index {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		out = append(out, s.index[a].Chord)
	}
	return out
}

// FailNode crashes a node (index or storage) without warning. Ownership of
// the failed node's keys moves de facto (routing evicts it) and the ring is
// no longer converged, so the stabilization epoch advances and every owner
// arc is relearned.
func (s *System) FailNode(addr simnet.Addr) {
	s.net.Fail(addr)
	if flt := s.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(addr), Kind: flight.KindFail, Note: "operator"})
	}
	s.setConverged(false)
	s.bumpEpoch(0, "fail "+string(addr), chord.Ref{}, nil)
}

// RecoverNode brings a crashed node back. The node reclaims its key range
// once the ring converges, so the stabilization epoch advances, every
// owner arc is relearned and the ring counts as unconverged until then.
func (s *System) RecoverNode(addr simnet.Addr) {
	s.net.Recover(addr)
	if flt := s.net.FlightRecorder(); flt != nil {
		flt.Emit(flight.Event{Node: string(addr), Kind: flight.KindRecover, Note: "operator"})
	}
	s.setConverged(false)
	s.bumpEpoch(0, "recover "+string(addr), chord.Ref{}, nil)
}

// RemoveIndexGraceful performs a clean index-node departure: location
// table handed to the successor, ring pointers rewired, node deregistered
// (Sect. III-D), and the ring brought back to its ideal state (converge:
// on a converged ring only the pointers the leave moved). The node leaves
// the deployment map before the handoff so no new traffic routes to it; a
// failed handoff reinstates it.
func (s *System) RemoveIndexGraceful(addr simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	s.mu.Lock()
	n, ok := s.index[addr]
	if ok {
		delete(s.index, addr)
	}
	s.mu.Unlock()
	if !ok {
		return at, fmt.Errorf("overlay: unknown index node %s", addr)
	}
	now, err := n.LeaveGraceful(at)
	if err != nil {
		s.mu.Lock()
		s.index[addr] = n
		s.mu.Unlock()
		return now, err
	}
	return s.converge(now, "leave", n.Chord), nil
}

// DropStorageEverywhere removes a failed storage node's postings from all
// live index nodes — the global form of the timeout cleanup, used by tests
// and by churn experiments; during queries the cleanup happens lazily at
// the index node that observes the timeout. The drop notifications are
// broadcast from a live ring member to every live index node in parallel
// (the same fan-out machinery as publication), so the cleanup completes at
// the slowest branch, not the sum.
func (s *System) DropStorageEverywhere(addr simnet.Addr, at simnet.VTime) simnet.VTime {
	origin := s.anyIndexAddr()
	if origin == "" {
		return at
	}
	var targets []simnet.Addr
	for _, n := range s.IndexNodes() {
		if s.net.Alive(n.Addr()) {
			targets = append(targets, n.Addr())
		}
	}
	// Best-effort: drop notifications are cleanup hints; an index node the
	// broadcast misses drops the postings lazily on its own query timeout
	// or on republish.
	_, done := simnet.Parallel(len(targets), 0, func(i int) (simnet.Payload, simnet.VTime, error) {
		return s.net.CallRetry(origin, targets[i], MethodDropNode, DropNodeReq{Node: addr}, at)
	})
	s.mu.Lock()
	delete(s.storage, addr)
	s.mu.Unlock()
	return simnet.MaxTime(at, done)
}

// TotalTriples sums the sizes of all storage-node graphs.
func (s *System) TotalTriples() int {
	total := 0
	for _, n := range s.StorageNodes() {
		total += n.TotalTriples()
	}
	return total
}

// TotalPostings sums the location-table postings across index nodes
// (replicas included).
func (s *System) TotalPostings() int {
	total := 0
	for _, n := range s.IndexNodes() {
		total += n.Table.Postings()
	}
	return total
}
