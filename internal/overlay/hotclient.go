package overlay

// Workload-adaptive hot-key replication (initiator side).
//
// LookupClient is the one lookup entry point for query engines. On a
// static system (Config.Adaptive off) it sends exactly the paper's
// resolve-then-lookup message sequence with a zero epoch, byte-identical
// to the pre-adaptive wire format. On an adaptive system it stamps each
// lookup with the current stabilization epoch, remembers the replica
// advertisements coming back in PostingsResp, and serves later lookups of
// the same key from the nearest live replica holder — rotating among
// equally-near holders so the hot load spreads instead of moving the
// hotspot one ring position over. Any miss, error, or epoch change drops
// the hint and falls back to the home successor.

import (
	"errors"
	"sync"

	"adhocshare/internal/chord"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// errBadLookupResp reports a lookup answered with an unexpected payload
// type — a protocol bug, not a fault.
var errBadLookupResp = errors.New("overlay: lookup returned unexpected payload type")

// replicaHint is one learned advertisement: where a hot key can be read
// while the initiator's epoch still equals epoch.
type replicaHint struct {
	home       simnet.Addr
	candidates []simnet.Addr
	epoch      uint64
	rot        int
}

// LookupClient performs location-table lookups for one query initiator
// side, learning and using hot-key replicas when the system is adaptive.
type LookupClient struct {
	sys *System

	// mu guards hints, the per-key advertisement cache.
	mu    sync.Mutex
	hints map[chord.ID]*replicaHint
}

// NewLookupClient creates a lookup client bound to one deployment.
func NewLookupClient(sys *System) *LookupClient {
	return &LookupClient{sys: sys, hints: make(map[chord.ID]*replicaHint)}
}

// LookupRow is one lookup's result.
type LookupRow struct {
	// Postings is the key's location-table row (caller-owned copy).
	Postings []Posting
	// Index is the key's home successor — the node the static path would
	// have read; join-site planning keys off it either way, so plans are
	// identical with and without replica hits.
	Index simnet.Addr
	// Hops is the FindSuccessor hop count of a key resolved on its own (0
	// on a replica hit, which skips resolution entirely, and for a key
	// resolved in a batch, whose forwards are shared with the others).
	Hops int
	// ReplicaHit reports that a hot replica served the row.
	ReplicaHit bool
	// Done is when the row reached the caller.
	Done simnet.VTime
}

// LookupError reports the step of a lookup that failed: the ring
// resolution (Method chord.find_successor, or chord.find_successor_batch
// for a batch) or the row read (Method index.lookup, Owner the index node
// asked). Err is the step's own error.
type LookupError struct {
	Method string
	Owner  simnet.Addr
	Err    error
}

// Error implements error.
func (e *LookupError) Error() string {
	if e.Owner != "" {
		return "overlay: " + e.Method + " at " + string(e.Owner) + ": " + e.Err.Error()
	}
	return "overlay: " + e.Method + ": " + e.Err.Error()
}

// Unwrap exposes the step's error, so errors.Is still matches the simnet
// loss sentinels.
func (e *LookupError) Unwrap() error { return e.Err }

// pickReplica returns the next replica target for the key under the given
// epoch: candidates are filtered to live nodes, ordered by path factor
// from the initiator (address as the deterministic tiebreak), and the
// minimal-factor group is rotated by a per-hint counter.
//
//adhoclint:faultpath(benign, hint-cache bookkeeping; a rotation bump or dropped hint from a failed attempt only changes which replica is tried next, never correctness)
func (c *LookupClient) pickReplica(from simnet.Addr, key chord.ID, epoch uint64) (simnet.Addr, simnet.Addr, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hints[key]
	if !ok || h.epoch != epoch {
		return "", "", false
	}
	// Two passes over the (tiny) candidate list: find the minimal path
	// factor among live holders, then gather that group in advertisement
	// order — a deterministic order, so the rotation below is too.
	bestF := 0.0
	alive := 0
	for _, cand := range h.candidates {
		if !c.sys.Net().Alive(cand) {
			continue
		}
		f := c.sys.Net().PathFactor(from, cand)
		if alive == 0 || f < bestF {
			bestF = f
		}
		alive++
	}
	if alive == 0 {
		return "", "", false
	}
	group := make([]simnet.Addr, 0, alive)
	for _, cand := range h.candidates {
		if c.sys.Net().Alive(cand) && c.sys.Net().PathFactor(from, cand) == bestF {
			group = append(group, cand)
		}
	}
	if len(group) == 0 {
		return "", "", false
	}
	pick := group[h.rot%len(group)]
	h.rot++
	return pick, h.home, true
}

// hasHint reports whether the client holds an advertisement for key that
// is valid under epoch.
func (c *LookupClient) hasHint(key chord.ID, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hints[key]
	return ok && h.epoch == epoch
}

// dropHint forgets a key's advertisement (after a miss, error, or epoch
// change).
//
//adhoclint:faultpath(benign, deleting a hint only forces the next lookup through the home successor)
func (c *LookupClient) dropHint(key chord.ID) {
	c.mu.Lock()
	delete(c.hints, key)
	c.mu.Unlock()
}

// storeHint records a fresh advertisement. The candidate list is home
// first, then the advertised replicas, deduplicated — so a fallback pick
// is always available and the slice never aliases the response payload.
//
//adhoclint:faultpath(benign, hint caching; hints are advisory and epoch-checked before use)
func (c *LookupClient) storeHint(key chord.ID, home simnet.Addr, replicas []simnet.Addr, epoch uint64) {
	cands := make([]simnet.Addr, 0, len(replicas)+1)
	cands = append(cands, home)
	for _, r := range replicas {
		if r != home {
			cands = append(cands, r)
		}
	}
	c.mu.Lock()
	c.hints[key] = &replicaHint{home: home, candidates: cands, epoch: epoch}
	c.mu.Unlock()
}

// Lookup reads the location-table row for key on behalf of `from`: the
// one-key case of LookupBatch. resolveTC and readTC attribute the
// FindSuccessor walk and the lookup read; on an adaptive system the replica
// fast path derives its span from readTC. On a failed read the row names
// the owner asked; the error is the failed step's own.
func (c *LookupClient) Lookup(from simnet.Addr, key chord.ID, resolveTC, readTC trace.TraceContext, at simnet.VTime) (LookupRow, simnet.VTime, error) {
	var row [1]LookupRow
	done, err := c.lookupOne(from, []chord.ID{key}, c.epoch(), resolveTC, readTC, row[:], at)
	var le *LookupError
	if errors.As(err, &le) {
		return LookupRow{Index: le.Owner}, done, le.Err
	}
	return row[0], done, err
}

// LookupBatch reads the rows of several distinct keys on behalf of `from`
// in one planning round, rows[i] being keys[i]'s. A key with a live replica
// hint is read on its own, as Lookup reads it, and so is a key that is the
// only one left. The others are resolved together with one
// find_successor_batch from the caller's ring entry point — the ring walks a
// route prefix they share once — and read with one index.lookup per owner,
// carrying every key that owner holds; the reads leave together once the
// owners are known. Key i read on its own derives its spans from
// tc.Child(2i) and tc.Child(2i+1); the batch resolves under tc.Child(2n),
// n = len(keys), and owner j reads under tc.Child(2n+1+j). An error is a
// *LookupError naming the failed step.
//
//adhoclint:faultpath(benign, the branches fill only the round's own result slots, dropped when it fails)
func (c *LookupClient) LookupBatch(from simnet.Addr, keys []chord.ID, tc trace.TraceContext, at simnet.VTime) ([]LookupRow, simnet.VTime, error) {
	epoch := c.epoch()
	rows := make([]LookupRow, len(keys))
	if len(keys) == 1 {
		done, err := c.lookupOne(from, keys, epoch, tc.Child(0), tc.Child(1), rows, at)
		return rows, done, err
	}
	hinted := make([]bool, len(keys))
	nHome := 0
	for i, key := range keys {
		hinted[i] = epoch != 0 && c.hasHint(key, epoch)
		if !hinted[i] {
			nHome++
		}
	}
	var alone, batch []int
	for i := range keys {
		if hinted[i] || nHome == 1 {
			alone = append(alone, i)
		} else {
			batch = append(batch, i)
		}
	}
	branches := len(alone)
	if len(batch) > 0 {
		branches++
	}
	//adhoclint:faultpath(abort-all, a key without its row leaves a pattern without its target set; the first failed branch fails the whole lookup)
	results, done := simnet.Parallel(branches, 0, func(b int) (struct{}, simnet.VTime, error) {
		if b < len(alone) {
			i := alone[b]
			done, err := c.lookupOne(from, keys[i:i+1], epoch, tc.Child(uint64(2*i)), tc.Child(uint64(2*i+1)), rows[i:i+1], at)
			return struct{}{}, done, err
		}
		done, err := c.lookupBatch(from, keys, batch, epoch, tc, rows, at)
		return struct{}{}, done, err
	})
	done = simnet.MaxTime(at, done)
	for _, r := range results {
		if r.Err != nil {
			return nil, done, r.Err
		}
	}
	return rows, done, nil
}

// epoch is the stabilization epoch lookups are stamped with: the system's
// on an adaptive system, zero on a static one.
func (c *LookupClient) epoch() uint64 {
	if c.sys.Config().Adaptive {
		return c.sys.Epoch()
	}
	return 0
}

// lookupOne reads key[0]'s row into out[0]: from a hot replica when the
// client holds a hint for it, else — or after a replica miss, from the
// elapsed time — the paper's resolve-then-read sequence through the home
// successor.
//
//adhoclint:faultpath(benign, out is the caller's result slot, dropped when the lookup fails)
func (c *LookupClient) lookupOne(from simnet.Addr, key []chord.ID, epoch uint64, resolveTC, readTC trace.TraceContext, out []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	now := at
	if epoch != 0 {
		if target, home, ok := c.pickReplica(from, key[0], epoch); ok {
			resp, done, err := c.sys.Net().CallRetry(from, target, MethodHotLookup,
				HotLookupReq{Key: key[0], Epoch: epoch, TC: readTC.Child(1)}, now)
			now = done
			if err == nil {
				if hr, ok := resp.(HotPostingsResp); ok && hr.Hit {
					out[0] = LookupRow{
						Postings:   append([]Posting(nil), hr.Postings...),
						Index:      home,
						ReplicaHit: true,
						Done:       now,
					}
					return now, nil
				}
			}
			// Miss, stale epoch, or unreachable holder: forget the hint
			// and pay the home-successor path from the elapsed time.
			c.dropHint(key[0])
		}
	}
	owner, hops, done, err := c.sys.ResolveKeyTraced(from, key[0], resolveTC, now)
	if err != nil {
		return done, &LookupError{Method: chord.MethodFindSuccessor, Err: err}
	}
	done, err = c.read(from, owner, key, epoch, readTC, out, done)
	out[0].Hops = hops
	return done, err
}

// lookupBatch resolves keys[idx] with one find_successor_batch and reads
// them into rows[idx] with one index.lookup per owner, owners in the order
// the keys first name them, all reads leaving when the resolution is in;
// the spans are LookupBatch's.
func (c *LookupClient) lookupBatch(from simnet.Addr, keys []chord.ID, idx []int, epoch uint64, tc trace.TraceContext, rows []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	base := uint64(2 * len(keys))
	targets := make([]chord.ID, len(idx))
	for j, i := range idx {
		targets[j] = keys[i]
	}
	owners, done, err := c.sys.ResolveKeys(from, targets, tc.Child(base), at)
	if err != nil {
		return done, &LookupError{Method: chord.MethodFindSuccessorBatch, Err: err}
	}
	var order []simnet.Addr
	held := map[simnet.Addr][]int{} // owner → positions in keys
	for j, ref := range owners {
		if _, ok := held[ref.Addr]; !ok {
			order = append(order, ref.Addr)
		}
		held[ref.Addr] = append(held[ref.Addr], idx[j])
	}
	//adhoclint:faultpath(abort-all, an owner's keys without their rows leave patterns without target sets; the first failed read fails the whole lookup)
	results, readDone := simnet.Parallel(len(order), 0, func(o int) (struct{}, simnet.VTime, error) {
		is := held[order[o]]
		ks := make([]chord.ID, len(is))
		for k, i := range is {
			ks[k] = keys[i]
		}
		out := make([]LookupRow, len(is))
		done, err := c.read(from, order[o], ks, epoch, tc.Child(base+1+uint64(o)), out, done)
		for k, i := range is {
			rows[i] = out[k]
		}
		return struct{}{}, done, err
	})
	for _, r := range results {
		if r.Err != nil {
			return simnet.MaxTime(done, readDone), r.Err
		}
	}
	return simnet.MaxTime(done, readDone), nil
}

// read asks owner for the rows of keys with one index.lookup, writes them
// to out and records the replica advertisements that come back.
func (c *LookupClient) read(from, owner simnet.Addr, keys []chord.ID, epoch uint64, tc trace.TraceContext, out []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	req := LookupReq{Keys: keys, Epoch: epoch, TC: tc}
	resp, done, err := c.sys.Net().CallRetry(from, owner, MethodLookup, req, at)
	if err != nil {
		return done, &LookupError{Method: MethodLookup, Owner: owner, Err: err}
	}
	keep := func(k int, pr PostingsResp) {
		if epoch != 0 && pr.Epoch == epoch && len(pr.Replicas) > 0 {
			c.storeHint(keys[k], owner, pr.Replicas, epoch)
		}
		out[k] = LookupRow{Postings: append([]Posting(nil), pr.Postings...), Index: owner, Done: done}
	}
	switch r := resp.(type) {
	case PostingsResp:
		if len(keys) == 1 {
			keep(0, r)
			return done, nil
		}
	case LookupResp:
		if len(r.Rows) == len(keys) {
			for k, pr := range r.Rows {
				keep(k, pr)
			}
			return done, nil
		}
	}
	return done, &LookupError{Method: MethodLookup, Owner: owner, Err: errBadLookupResp}
}
