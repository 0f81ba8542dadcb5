package overlay

// Workload-adaptive hot-key reads (initiator side).
//
// LookupClient is the one lookup entry point for query engines. On a
// static system (Config.Adaptive off) a lookup reads the key's row from its
// home successor with a zero epoch: in one call straight to it when the
// initiator is a provider that holds the key's owner arc this epoch — the
// arcs its publications learn — and otherwise as one routed read from the
// initiator's ring entry point, which the home successor answers directly
// (routed.go). On an adaptive system it stamps each read with the current
// stabilization epoch, remembers the holders a hot key's row comes back
// advertised with, with the digest of that row, and reads the key next
// time from the nearest live one of its home and those holders — rotating
// among equally-near ones so the hot load spreads instead of moving the
// hotspot one ring position over. A holder serves only a row with the
// remembered digest, one the owner itself returned. Any miss, error, or
// epoch change drops the hint and falls back to the home successor.

import (
	"errors"
	"fmt"
	"slices"

	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// errBadLookupResp reports a lookup answered with an unexpected payload
// type — a protocol bug, not a fault.
var errBadLookupResp = errors.New("overlay: lookup returned unexpected payload type")

// replicaHint is one learned advertisement: where a hot key can be read
// while the initiator's epoch still equals epoch, and the rowDigest of the
// row the owner returned with it.
type replicaHint struct {
	home       simnet.Addr
	candidates []simnet.Addr
	epoch      uint64
	digest     uint32
	rot        int
}

// LookupClient performs location-table lookups for one query initiator
// side, learning and reading hot keys' replica holders when the system is
// adaptive.
type LookupClient struct {
	sys *System

	// mu guards hints, the per-key advertisement cache.
	mu    lockcheck.Mutex
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
	// counted once, on one row. It is 0 on a direct read and on a replica
	// hit, which are not routed.
	Hops int
	// ReplicaHit reports that a hot read served the row.
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

// pickReplica returns the next hot-read target for the key under the
// given epoch, the key's home and the hint's digest: candidates are
// filtered to live nodes, ordered by path factor from the initiator
// (address as the deterministic tiebreak), and the minimal-factor group is
// rotated by a per-hint counter.
//
// A rotation bump or a dropped hint from a failed attempt only changes which
// candidate is tried next, never correctness.
func (c *LookupClient) pickReplica(from simnet.Addr, key chord.ID, epoch uint64) (target, home simnet.Addr, digest uint32, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hintLocked(key, epoch)
	if h == nil {
		return "", "", 0, false
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
		return "", "", 0, false
	}
	group := make([]simnet.Addr, 0, alive)
	for _, cand := range h.candidates {
		if c.sys.Net().Alive(cand) && c.sys.Net().PathFactor(from, cand) == bestF {
			group = append(group, cand)
		}
	}
	if len(group) == 0 {
		return "", "", 0, false
	}
	pick := group[h.rot%len(group)]
	h.rot++
	return pick, h.home, h.digest, true
}

// hasHint reports whether the client holds an advertisement for key that
// is valid under epoch; a static read (epoch 0) holds none.
func (c *LookupClient) hasHint(key chord.ID, epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hintLocked(key, epoch) != nil
}

// hintLocked is the client's advertisement for key if it is valid under
// epoch — learned in it: every epoch bump lapses every hint — and nil
// otherwise. The caller holds c.mu.
func (c *LookupClient) hintLocked(key chord.ID, epoch uint64) *replicaHint {
	if h := c.hints[key]; h != nil && h.epoch == epoch {
		return h
	}
	return nil
}

// dropHint forgets a key's advertisement (after a miss, error, or epoch
// change).
func (c *LookupClient) dropHint(key chord.ID) {
	c.mu.Lock()
	delete(c.hints, key)
	c.mu.Unlock()
}

// storeHint records a fresh advertisement and the digest of the row it
// came with. The candidate list is home first, then the advertised
// holders, deduplicated — so a fallback pick is always available and the
// slice never aliases the response payload.
//
// Hints are advisory and epoch-checked before use.
func (c *LookupClient) storeHint(key chord.ID, home simnet.Addr, replicas []simnet.Addr, epoch uint64, digest uint32) {
	cands := make([]simnet.Addr, 0, len(replicas)+1)
	cands = append(cands, home)
	for _, r := range replicas {
		if r != home {
			cands = append(cands, r)
		}
	}
	c.mu.Lock()
	c.hints[key] = &replicaHint{home: home, candidates: cands, epoch: epoch, digest: digest}
	c.mu.Unlock()
}

// Lookup reads the location-table row for key on behalf of `from`: the
// one-key case of LookupBatch. The read from the home successor travels
// under resolveTC; on an adaptive system a hot read derives its
// span from readTC. On a failed read the row names the owner found down,
// if any; the error is the read's own.
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
// hint is read on its own, as Lookup reads it. The others are read from
// their home successors: the keys inside owner arcs a provider `from`
// holds this epoch with one direct read per owner, and the rest together
// as one routed read from the caller's ring entry point — the ring walks a
// route prefix they share once, and each owner answers once for all of its
// keys. All branches leave at once. Key i read on its own derives its
// spans from tc.Child(2i) and tc.Child(2i+1); the reads from home
// successors travel under tc.Child(2n), tc.Child(2n+1), ..., n =
// len(keys), in the order of their first keys. An error is a *LookupError.
func (c *LookupClient) LookupBatch(from simnet.Addr, keys []chord.ID, tc trace.TraceContext, at simnet.VTime) ([]LookupRow, simnet.VTime, error) {
	epoch := c.epoch()
	rows := make([]LookupRow, len(keys))
	homeTC := uint64(2 * len(keys))
	if len(keys) == 1 && !c.hasHint(keys[0], epoch) {
		done, err := c.read(from, c.arcOwner(from, keys[0]), keys, epoch, tc.Child(homeTC), rows, at)
		return rows, done, err
	}
	var (
		alone []int
		homes []simnet.Addr // the home reads in the order of their first keys: an owner, "" for the routed read
	)
	groups := make([][]int, 0, len(keys)) // groups[g]: the positions in keys that homes[g] reads
	for i, key := range keys {
		if c.hasHint(key, epoch) {
			alone = append(alone, i)
			continue
		}
		owner := c.arcOwner(from, key)
		g := slices.Index(homes, owner)
		if g < 0 {
			g = len(homes)
			homes, groups = append(homes, owner), append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if len(alone) == 0 && len(homes) == 1 {
		done, err := c.read(from, homes[0], keys, epoch, tc.Child(homeTC), rows, at)
		return rows, done, err
	}
	// A key without its row leaves a pattern without its target set, so
	// the first failed branch fails the whole lookup.
	results, done := simnet.Parallel(len(alone)+len(homes), 0, func(b int) (struct{}, simnet.VTime, error) {
		if b < len(alone) {
			i := alone[b]
			done, err := c.lookupOne(from, keys[i:i+1], epoch, tc.Child(uint64(2*i)), tc.Child(uint64(2*i+1)), rows[i:i+1], at)
			return struct{}{}, done, err
		}
		g := b - len(alone)
		sub := make([]chord.ID, len(groups[g]))
		for j, i := range groups[g] {
			sub[j] = keys[i]
		}
		out := make([]LookupRow, len(sub))
		done, err := c.read(from, homes[g], sub, epoch, tc.Child(homeTC+uint64(g)), out, at)
		for j, i := range groups[g] {
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

// arcOwner returns the live owner of key by an arc the provider `from`
// holds this epoch (StorageNode.liveOwner), and "" when `from` is no
// provider or holds no such arc.
func (c *LookupClient) arcOwner(from simnet.Addr, key chord.ID) simnet.Addr {
	if st, ok := c.sys.Storage(from); ok {
		return st.liveOwner(c.sys.Epoch(), key)
	}
	return ""
}

// lookupOne reads key[0]'s row into out[0]: by a hot read when the client
// holds a hint for it, else — or after a miss, from the elapsed time —
// from the home successor.
func (c *LookupClient) lookupOne(from simnet.Addr, key []chord.ID, epoch uint64, resolveTC, readTC trace.TraceContext, out []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	now := at
	if epoch != 0 {
		if target, home, digest, ok := c.pickReplica(from, key[0], epoch); ok {
			resp, done, err := c.sys.Net().CallRetry(from, target, MethodHotLookup,
				HotLookupReq{Key: key[0], Digest: digest, TC: readTC.Child(1)}, now)
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
			// Miss or unreachable holder: forget the hint and pay the
			// home-successor path from the elapsed time.
			c.dropHint(key[0])
		}
	}
	return c.read(from, c.arcOwner(from, key[0]), key, epoch, resolveTC, out, now)
}

// routedAttempts is a read's send budget: the first send plus four
// re-sends. A resolve-then-read lookup of h hops sent 2·(h+1) + 2 legs,
// each with three attempts of its own, so a loss went unrecovered with
// probability about (2h+4)·p³. A routed read re-sends its whole route of
// h + 3 legs, which fails k times running with probability about
// ((h+3)·p)^k. At p = 1% the mean route of point_lookup's ring (h = 2.4:
// 5.4 legs against 8.8) is no worse from k = 4 on, but a route of h ≥ 3
// hops needs k = 5 (h = 3: 7.8e-7 against 1.0e-5), and k = 5 holds up to
// h = 8 hops. A direct read is 2 legs, (2p)^5 = 3.2e-9.
const routedAttempts = 5

// read reads the rows of keys into out, out[i] being keys[i]'s, under tc.
// With owner set — the keys lie inside an arc of owner's the caller holds
// this epoch — it is a direct read: owner's hand-on message (Owned) goes
// straight to owner, which answers as a routed read's owner does, in 2
// legs and 0 hops. Otherwise it is one routed read from `from`'s ring
// entry point (routed.go). The origin hears nothing of a read that fails
// on its way — no leg is acknowledged — so a failed attempt costs it
// FailTimeout from its departure, never less than the time the read took;
// a lost leg, or a lost reply, is answered by re-sending the whole read
// the same way, up to routedAttempts times. An owner a direct read finds
// unreachable — a crash the epoch has not seen — has its keys read routed
// from then on, so a replica holder may stand in: that read pays two
// FailTimeouts, this one and the one the owner's predecessor waits.
func (c *LookupClient) read(from, owner simnet.Addr, keys []chord.ID, epoch uint64, tc trace.TraceContext, out []LookupRow, at simnet.VTime) (simnet.VTime, error) {
	to, replyTo := owner, from
	if owner == "" {
		to, replyTo = c.sys.entryFor(from), ""
		if to == "" {
			return at, &LookupError{Method: MethodRoutedRead, Err: fmt.Errorf("overlay: node %s has no ring entry point", from)}
		}
	}
	net := c.sys.Net()
	req := RoutedReadReq{Keys: keys, Origin: from, Epoch: epoch, Owned: owner != "", TC: tc}
	var err error
	for attempt := 0; attempt < routedAttempts; attempt++ {
		var (
			resp simnet.Payload
			done simnet.VTime
		)
		resp, done, err = net.Forward(from, to, MethodRoutedRead, req, replyTo, at)
		if err == nil {
			return done, c.keepReplies(keys, epoch, resp, done, out)
		}
		if !simnet.IsLost(err) && owner != "" {
			return c.read(from, "", keys, epoch, tc, out, done)
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
// arrival times — and records the hot-key advertisements they carry, each
// with its row's digest. A reply's rows are the caller's from here on:
// they were read for it.
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
				c.storeHint(key, r.Owner, pr.Replicas, epoch, rowDigest(pr.Postings))
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
