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
	// Hops is the FindSuccessor hop count (0 on a replica hit, which
	// skips resolution entirely).
	Hops int
	// ReplicaHit reports that a hot replica served the row.
	ReplicaHit bool
}

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

// Lookup reads the location-table row for key on behalf of `from`.
// resolveTC and readTC attribute the FindSuccessor walk and the lookup
// read, exactly like the static inline path did, so static traces are
// unchanged. On an adaptive system the replica fast path derives its span
// from readTC.
func (c *LookupClient) Lookup(from simnet.Addr, key chord.ID, resolveTC, readTC trace.TraceContext, at simnet.VTime) (LookupRow, simnet.VTime, error) {
	epoch := uint64(0)
	if c.sys.Config().Adaptive {
		epoch = c.sys.Epoch()
	}
	now := at
	if epoch != 0 {
		if target, home, ok := c.pickReplica(from, key, epoch); ok {
			hotReq := HotLookupReq{Key: key, Epoch: epoch, TC: readTC.Child(1)}
			hotCall := func(at simnet.VTime) (simnet.Payload, simnet.VTime, error) {
				return c.sys.Net().Call(from, target, MethodHotLookup, hotReq, at)
			}
			resp, done, err := simnet.Retry(simnet.DefaultAttempts, now, hotCall)
			now = done
			if err == nil {
				if hr, ok := resp.(HotPostingsResp); ok && hr.Hit {
					return LookupRow{
						Postings:   append([]Posting(nil), hr.Postings...),
						Index:      home,
						ReplicaHit: true,
					}, now, nil
				}
			}
			// Miss, stale epoch, or unreachable holder: forget the hint
			// and pay the home-successor path from the elapsed time.
			c.dropHint(key)
		}
	}
	owner, hops, done, err := c.sys.ResolveKeyTraced(from, key, resolveTC, now)
	now = done
	if err != nil {
		return LookupRow{}, now, err
	}
	req := LookupReq{Key: key, Epoch: epoch, TC: readTC}
	read := func(at simnet.VTime) (simnet.Payload, simnet.VTime, error) {
		return c.sys.Net().Call(from, owner, MethodLookup, req, at)
	}
	resp, done, err := simnet.Retry(simnet.DefaultAttempts, now, read)
	now = done
	if err != nil {
		return LookupRow{Index: owner}, now, err
	}
	pr, ok := resp.(PostingsResp)
	if !ok {
		return LookupRow{Index: owner}, now, errBadLookupResp
	}
	if epoch != 0 && pr.Epoch == epoch && len(pr.Replicas) > 0 {
		c.storeHint(key, owner, pr.Replicas, epoch)
	}
	return LookupRow{
		Postings: append([]Posting(nil), pr.Postings...),
		Index:    owner,
		Hops:     hops,
	}, now, nil
}
