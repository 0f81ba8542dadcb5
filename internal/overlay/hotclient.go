package overlay

// Workload-adaptive hot-key replication (initiator side).
//
// LookupClient is the one lookup entry point for query engines. On a
// static system (Config.Adaptive off) a lookup is one routed read with a
// zero epoch: it is routed from the initiator's ring entry point to the
// key's home successor, which answers the initiator directly (routed.go).
// On an adaptive system it stamps each read with the current stabilization
// epoch, remembers the replica advertisements coming back in PostingsResp,
// and serves later lookups of the same key from the nearest live replica
// holder — rotating among equally-near holders so the hot load spreads
// instead of moving the hotspot one ring position over. Any miss, error,
// or epoch change drops the hint and falls back to the home successor.

import (
	"errors"
	"fmt"
	"slices"
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
	// Hops is the ring forwards of the key's route that no other row of
	// the same read counts: for a key read on its own its FindSuccessor hop
	// count; in a read of several keys each route prefix they share is
	// counted once, on one row. It is 0 on a replica hit, which is not
	// routed.
	Hops int
	// ReplicaHit reports that a hot replica served the row.
	ReplicaHit bool
	// Done is when the row reached the caller.
	Done simnet.VTime
}

// LookupError reports a lookup that failed: a routed read (Method
// index.routed_read; Owner names a key's owner found down when no replica
// holder stood in for it) or a replica read. Err is the failure's own
// error.
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
// one-key case of LookupBatch. The routed read travels under resolveTC; on
// an adaptive system the replica fast path derives its span from readTC.
// On a failed read the row names the owner found down, if any; the error
// is the read's own.
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
// hint is read on its own, as Lookup reads it. The others go out together
// as one routed read from the caller's ring entry point: the ring walks a
// route prefix they share once, and each owner answers once for all of its
// keys. Key i read on its own derives its spans from tc.Child(2i) and
// tc.Child(2i+1); the routed read of the others travels under tc.Child(2n),
// n = len(keys). An error is a *LookupError.
//
//adhoclint:faultpath(benign, the branches fill only the round's own result slots, dropped when it fails)
func (c *LookupClient) LookupBatch(from simnet.Addr, keys []chord.ID, tc trace.TraceContext, at simnet.VTime) ([]LookupRow, simnet.VTime, error) {
	epoch := c.epoch()
	rows := make([]LookupRow, len(keys))
	routedTC := tc.Child(uint64(2 * len(keys)))
	var alone []int
	if epoch != 0 {
		for i, key := range keys {
			if c.hasHint(key, epoch) {
				alone = append(alone, i)
			}
		}
	}
	if len(alone) == 0 {
		done, err := c.routedRead(from, keys, epoch, routedTC, rows, at)
		return rows, done, err
	}
	var home []chord.ID
	var homeAt []int // positions in keys of home
	for i, key := range keys {
		if !slices.Contains(alone, i) {
			home, homeAt = append(home, key), append(homeAt, i)
		}
	}
	branches := len(alone)
	if len(home) > 0 {
		branches++
	}
	//adhoclint:faultpath(abort-all, a key without its row leaves a pattern without its target set; the first failed branch fails the whole lookup)
	results, done := simnet.Parallel(branches, 0, func(b int) (struct{}, simnet.VTime, error) {
		if b < len(alone) {
			i := alone[b]
			done, err := c.lookupOne(from, keys[i:i+1], epoch, tc.Child(uint64(2*i)), tc.Child(uint64(2*i+1)), rows[i:i+1], at)
			return struct{}{}, done, err
		}
		out := make([]LookupRow, len(home))
		done, err := c.routedRead(from, home, epoch, routedTC, out, at)
		for j, i := range homeAt {
			rows[i] = out[j]
		}
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
// elapsed time — with a routed read to the home successor.
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
	return c.routedRead(from, key, epoch, resolveTC, out, now)
}

// routedAttempts is the routed read's send budget: the first send plus
// four re-sends. A resolve-then-read lookup of h hops sent 2·(h+1) + 2
// legs, each with three attempts of its own, so a loss went unrecovered
// with probability about (2h+4)·p³. A routed read re-sends its whole route
// of h + 3 legs, which fails k times running with probability about
// ((h+3)·p)^k. At p = 1% the mean route of point_lookup's ring (h = 2.4:
// 5.4 legs against 8.8) is no worse from k = 4 on, but a route of h ≥ 3
// hops needs k = 5 (h = 3: 7.8e-7 against 1.0e-5), and k = 5 holds up to
// h = 8 hops.
const routedAttempts = 5

// routedRead reads the rows of keys into out, out[i] being keys[i]'s, with
// one routed read from `from`'s ring entry point under tc (routed.go). The
// origin hears nothing of a read that fails on its way — no leg is
// acknowledged — so a failed attempt costs it FailTimeout from its
// departure, never less than the time the route took; a lost leg, or a
// lost reply, is answered by re-sending the whole read, up to
// routedAttempts times.
func (c *LookupClient) routedRead(from simnet.Addr, keys []chord.ID, epoch uint64, tc trace.TraceContext, out []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	entry := c.sys.entryFor(from)
	if entry == "" {
		return at, &LookupError{Method: MethodRoutedRead, Err: fmt.Errorf("overlay: node %s has no ring entry point", from)}
	}
	net := c.sys.Net()
	req := RoutedReadReq{Keys: keys, Origin: from, Epoch: epoch, TC: tc}
	var err error
	for attempt := 0; attempt < routedAttempts; attempt++ {
		var (
			resp simnet.Payload
			done simnet.VTime
		)
		resp, done, err = net.Forward(from, entry, MethodRoutedRead, req, "", at)
		if err == nil {
			return done, c.keepReplies(keys, epoch, resp, done, out)
		}
		at = simnet.MaxTime(at.Add(net.Config().FailTimeout), done)
		if !simnet.IsLost(err) {
			break
		}
		if attempt == routedAttempts-1 {
			err = fmt.Errorf("%w (after %d attempts)", err, routedAttempts)
		}
	}
	var le *LookupError
	if errors.As(err, &le) {
		return at, le
	}
	return at, &LookupError{Method: MethodRoutedRead, Err: err}
}

// keepReplies writes the owners' replies to a routed read of keys into out
// — resp is one reply that arrived at `at`, or several with their own
// arrival times — and records the replica advertisements they carry. A
// reply's rows are the caller's from here on: they were read for it.
func (c *LookupClient) keepReplies(keys []chord.ID, epoch uint64, resp simnet.Payload, at simnet.VTime, out []LookupRow) error {
	filled := 0
	keep := func(r *RoutedReadResp, at simnet.VTime) error {
		filled += len(r.Keys)
		for j, key := range r.Keys {
			i := slices.Index(keys, key)
			if i < 0 || j >= len(r.Rows) {
				return &LookupError{Method: MethodRoutedRead, Owner: r.Owner, Err: errBadLookupResp}
			}
			pr := r.Rows[j]
			if epoch != 0 && pr.Epoch == epoch && len(pr.Replicas) > 0 {
				c.storeHint(key, r.Owner, pr.Replicas, epoch)
			}
			out[i] = LookupRow{Postings: pr.Postings, Index: r.Owner, Done: at}
			if j == 0 {
				out[i].Hops = r.Hops
			}
		}
		return nil
	}
	var err error
	switch r := resp.(type) {
	case *RoutedReadResp:
		err = keep(r, at)
	case *readReplies:
		for k, rep := range r.replies {
			if err = keep(rep, r.arrived[k]); err != nil {
				break
			}
		}
	}
	if err == nil && filled != len(keys) {
		err = &LookupError{Method: MethodRoutedRead, Err: errBadLookupResp}
	}
	return err
}
