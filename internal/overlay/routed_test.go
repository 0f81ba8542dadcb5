package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// randomSystem builds a converged deployment on one of the random rings
// chord's route_test.go checks routing on: size index nodes with distinct
// identifiers on a bits-wide circle (an address whose hash another node
// already has is refused, ErrDuplicateID), three storage nodes, each publishing
// a few triples of a small vocabulary. It returns the storage nodes and
// the index keys of what they published.
func randomSystem(t *testing.T, rng *rand.Rand, bits uint, size, replication int) (*System, []simnet.Addr, []chord.ID, simnet.VTime) {
	t.Helper()
	s := NewSystem(Config{Bits: bits, Replication: replication,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i, joined := 0, 0; joined < size; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%03d", i)), now)
		if errors.Is(err, ErrDuplicateID) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		now = done
		joined++
	}
	var storage []simnet.Addr
	var keys []chord.ID
	for i := 0; i < 3; i++ {
		addr := simnet.Addr(fmt.Sprintf("st-%d", i))
		_, done, err := s.AddStorageNode(addr, now)
		if err != nil {
			t.Fatal(err)
		}
		var triples []rdf.Triple
		for j := 0; j < 4; j++ {
			tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", rng.Intn(6))), P: fp([]string{"knows", "name", "mbox"}[rng.Intn(3)]), O: ex(fmt.Sprintf("o%d", rng.Intn(6)))}
			triples = append(triples, tr)
			for _, k := range TripleKeys(tr, bits) {
				if !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
		}
		if now, err = s.Publish(addr, triples, done); err != nil {
			t.Fatal(err)
		}
		storage = append(storage, addr)
	}
	return s, storage, keys, now
}

// legsSince is the number of message legs the fabric carried since before.
func legsSince(s *System, before simnet.Snapshot) int64 {
	return s.Net().Metrics().Messages - before.Messages
}

// refRead is the resolve-then-read lookup the routed read replaced, kept
// as the reference model: FindSuccessor from the initiator's ring entry
// point (System.ResolveKey), then the owner's location-table row, which
// the index.lookup call that followed returned in two legs — none when
// the owner was the initiator itself.
func refRead(t *testing.T, s *System, from simnet.Addr, key chord.ID, at simnet.VTime) (row []Posting, owner simnet.Addr, hops int, legs int64) {
	t.Helper()
	before := s.Net().Metrics()
	owner, hops, _, err := s.ResolveKey(from, key, at)
	if err != nil {
		t.Fatal(err)
	}
	legs = legsSince(s, before)
	if owner != from {
		legs += 2
	}
	idx, _ := s.Index(owner)
	return idx.Table.Get(key), owner, hops, legs
}

// refBatch is the reference model of a read of several keys: one
// find_successor_batch from the initiator's ring entry point, then one
// two-leg read per owner other than the initiator. forwards is the ring's
// forward count the engine read off the batch's traffic.
func refBatch(t *testing.T, s *System, from simnet.Addr, keys []chord.ID, at simnet.VTime) (owners []simnet.Addr, forwards int, legs int64) {
	t.Helper()
	before := s.Net().Metrics()
	found, _, err := s.ResolveKeys(from, keys, trace.TraceContext{}, at)
	if err != nil {
		t.Fatal(err)
	}
	traffic := s.Net().Metrics().Sub(before)
	legs = traffic.Messages
	forwards = int(traffic.PerMethod[chord.MethodFindSuccessorBatch].Messages / 2)
	if _, own := s.Index(from); !own {
		forwards--
	}
	for _, r := range found.Nodes {
		owners = append(owners, r.Addr)
		if r.Addr != from && slices.Index(owners, r.Addr) == len(owners)-1 {
			legs += 2
		}
	}
	return owners, forwards, legs
}

// TestRoutedLookupMatchesResolveThenRead is the routed read's differential:
// on random rings (Bits 8–24, 2–64 index nodes), from storage and index
// initiators that hold no owner arcs (a provider that holds one reads
// directly, TestDirectReadMatchesRouted), every key's routed read returns
// the row, owner and hop count
// the resolve-then-read reference finds, at exactly hops + 3 legs — one
// fewer from an index node, which is its own entry point, and one fewer
// again when it owns the key. A read of several keys returns every key's
// row and owner, counts the forwards the reference's batch made, and never
// costs more legs than the reference.
func TestRoutedLookupMatchesResolveThenRead(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 8; trial++ {
		bits := uint(8 + rng.Intn(17))
		size := 2 + rng.Intn(63)
		if trial == 0 {
			bits, size = 24, 64
		}
		s, storage, keys, now := randomSystem(t, rng, bits, size, 1+rng.Intn(2))
		for i := 0; i < 8; i++ {
			keys = append(keys, chord.HashID(fmt.Sprint(rng.Int63()), bits))
		}
		index := s.IndexNodes()
		client := NewLookupClient(s)
		for _, from := range []simnet.Addr{storage[rng.Intn(len(storage))], index[rng.Intn(len(index))].Addr()} {
			_, fromIndex := s.Index(from)
			if st, ok := s.Storage(from); ok {
				st.dropArcs()
			}
			for _, key := range keys {
				want, owner, hops, _ := refRead(t, s, from, key, now)
				before := s.Net().Metrics()
				got, _, err := client.Lookup(from, key, trace.TraceContext{}, trace.TraceContext{}, now)
				if err != nil {
					t.Fatalf("bits %d, %d nodes, %s → %v: %v", bits, size, from, key, err)
				}
				legs := legsSince(s, before)
				if !slices.Equal(got.Postings, want) || got.Index != owner || got.Hops != hops {
					t.Fatalf("bits %d, %d nodes, %s → %v: row %v at %s after %d hops, the reference %v at %s after %d",
						bits, size, from, key, got.Postings, got.Index, got.Hops, want, owner, hops)
				}
				wantLegs := int64(hops + 3)
				if fromIndex {
					wantLegs--
				}
				if owner == from {
					wantLegs--
				}
				if legs != wantLegs {
					t.Fatalf("bits %d, %d nodes, %s → %v: %d legs for %d hops, want %d", bits, size, from, key, legs, hops, wantLegs)
				}
			}
			for round := 0; round < 4; round++ {
				batch := slices.Clone(keys)
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				batch = batch[:2+rng.Intn(len(batch)-1)]
				owners, forwards, refLegs := refBatch(t, s, from, batch, now)
				before := s.Net().Metrics()
				rows, _, err := client.LookupBatch(from, batch, trace.TraceContext{}, now)
				if err != nil {
					t.Fatalf("bits %d, %d nodes, %s, %d keys: %v", bits, size, from, len(batch), err)
				}
				legs := legsSince(s, before)
				hops := 0
				for i, key := range batch {
					idx, _ := s.Index(owners[i])
					if want := idx.Table.Get(key); !slices.Equal(rows[i].Postings, want) || rows[i].Index != owners[i] {
						t.Fatalf("bits %d, %d nodes, %s, key %v of %d: row %v at %s, the reference %v at %s",
							bits, size, from, key, len(batch), rows[i].Postings, rows[i].Index, want, owners[i])
					}
					hops += rows[i].Hops
				}
				if hops != forwards || legs > refLegs {
					t.Fatalf("bits %d, %d nodes, %s, %d keys: %d forwards in %d legs, the reference %d in %d",
						bits, size, from, len(batch), hops, legs, forwards, refLegs)
				}
			}
		}
	}
}

// crashedOwnerFixture publishes alice's triples from D1 on eight index
// nodes and crashes, without letting the ring heal, the owner of one of
// their keys that is not D1's ring entry point. It returns the key, the
// row it held and the dead owner.
func crashedOwnerFixture(t *testing.T, replication int) (*System, chord.ID, []Posting, simnet.Addr, simnet.VTime) {
	t.Helper()
	s := NewSystem(Config{Bits: 16, Replication: replication,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < 8; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	st, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = s.Publish("D1", aliceTriples(), now); err != nil {
		t.Fatal(err)
	}
	for _, tr := range aliceTriples() {
		for _, key := range TripleKeys(tr, s.Config().Bits) {
			owner, _, _, err := s.ResolveKey("D1", key, now)
			if err != nil {
				t.Fatal(err)
			}
			idx, _ := s.Index(owner)
			if row := idx.Table.Get(key); owner != st.AttachedTo() && len(row) > 0 {
				s.FailNode(owner)
				return s, key, row, owner, now
			}
		}
	}
	t.Fatal("every key of the fixture is owned by D1's entry point")
	return nil, 0, nil, "", 0
}

// TestRoutedReadOwnerCrashServedByReplica: with Replication 2 the owner's
// predecessor, finding the owner down, hands the read to the successor
// that holds its replica rows, and the row is the one the owner held.
func TestRoutedReadOwnerCrashServedByReplica(t *testing.T) {
	s, key, want, dead, now := crashedOwnerFixture(t, 2)
	row, _, err := NewLookupClient(s).Lookup("D1", key, trace.TraceContext{}, trace.TraceContext{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(row.Postings, want) || row.Index == dead {
		t.Errorf("with %s crashed: row %v from %s, want %v from a replica holder", dead, row.Postings, row.Index, want)
	}
}

// TestRoutedReadOwnerCrashIsTypedError: with Replication 1 no other node
// holds the row, so the read fails with a *LookupError naming the dead
// owner — never with an empty row from the node after it.
func TestRoutedReadOwnerCrashIsTypedError(t *testing.T) {
	s, key, _, dead, now := crashedOwnerFixture(t, 1)
	client := NewLookupClient(s)
	row, _, err := client.Lookup("D1", key, trace.TraceContext{}, trace.TraceContext{}, now)
	if !errors.Is(err, simnet.ErrUnreachable) || row.Index != dead || len(row.Postings) > 0 {
		t.Errorf("Lookup: row %v at %s, error %v; want %s named unreachable", row.Postings, row.Index, err, dead)
	}
	_, _, err = client.LookupBatch("D1", []chord.ID{key, key + 1}, trace.TraceContext{}, now)
	var le *LookupError
	if !errors.As(err, &le) || le.Owner != dead || le.Method != MethodRoutedRead {
		t.Errorf("LookupBatch: error %v, want a *LookupError naming %s", err, dead)
	}
}

// TestRoutedReadLossResendsWholeRead: no leg of a routed read — here from
// a provider that holds no owner arcs — is acknowledged, so a lost forward
// or a lost reply costs the origin its
// FailTimeout from departure, after which it re-sends the whole read; the
// re-sent read returns the same row, at FailTimeout plus the loss-free
// read's time. A read every attempt of which is lost fails with a
// *LookupError after routedAttempts deadlines. The loss seeds are found by
// search, so the cases are independent of where the draws fall.
func TestRoutedReadLossResendsWholeRead(t *testing.T) {
	s, now := newTestSystem(t, 8)
	if _, done, err := s.AddStorageNode("D1", now); err != nil {
		t.Fatal(err)
	} else if now, err = s.Publish("D1", aliceTriples(), done); err != nil {
		t.Fatal(err)
	}
	d1, _ := s.Storage("D1")
	d1.dropArcs()
	key := TripleKeys(aliceTriples()[0], s.Config().Bits)[KeyS]
	client := NewLookupClient(s)
	clean, cleanDone, err := client.Lookup("D1", key, trace.TraceContext{}, trace.TraceContext{}, now)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.Net().Config().FailTimeout
	rec := trace.NewBuffer()
	s.Net().SetRecorder(rec)
	found := map[string]bool{}
	for seed := int64(1); seed < 4000 && len(found) < 3; seed++ {
		rec.Reset()
		s.Net().SetFaults(&simnet.FaultPlan{Seed: seed, LossRate: 0.3})
		row, done, err := client.Lookup("D1", key, trace.Root(1), trace.TraceContext{}, now)
		var lost []trace.Span
		for _, sp := range rec.Spans() {
			if sp.Name == MethodRoutedRead && sp.Note == flight.KindLost {
				lost = append(lost, sp)
			}
		}
		switch {
		case err != nil:
			var le *LookupError
			if !simnet.IsLost(err) || len(lost) != routedAttempts {
				t.Fatalf("seed %d: %v after %d lost legs, want a loss after %d", seed, err, len(lost), routedAttempts)
			}
			if want := now.Add(routedAttempts * ft); done != want || errors.As(err, &le) {
				t.Fatalf("seed %d: failed at %v (error %T), want %v unwrapped from its *LookupError", seed, done, err, want)
			}
			if _, _, err := client.LookupBatch("D1", []chord.ID{key}, trace.Root(1), now); !errors.As(err, &le) || le.Method != MethodRoutedRead {
				t.Fatalf("seed %d: LookupBatch error %v, want a *LookupError", seed, err)
			}
			found["exhausted"] = true
		case len(lost) == 1:
			kind := "forward"
			if lost[0].IsResponse() {
				kind = "reply"
			}
			found[kind] = true
			if !slices.Equal(row.Postings, clean.Postings) || row.Index != clean.Index || row.Hops != clean.Hops {
				t.Fatalf("seed %d, lost %s: row %+v, the loss-free read %+v", seed, kind, row, clean)
			}
			if want := cleanDone.Add(ft); done != want {
				t.Fatalf("seed %d, lost %s: answered at %v, want %v (FailTimeout, then the loss-free read)", seed, kind, done, want)
			}
		}
	}
	for _, kind := range []string{"forward", "reply", "exhausted"} {
		if !found[kind] {
			t.Errorf("no seed loses a %s alone; the search covers too few", kind)
		}
	}
}

// routeThrough finds, on a converged deployment, a key whose route from
// entry crosses an intermediate hop: neither entry, nor the owner, nor its
// predecessor. It returns the key and that hop.
func routeThrough(t *testing.T, s *System, entry simnet.Addr, rng *rand.Rand) (chord.ID, simnet.Addr) {
	t.Helper()
	for tries := 0; tries < 1000; tries++ {
		key := chord.HashID(fmt.Sprint(rng.Int63()), s.Config().Bits)
		var path []simnet.Addr
		at := entry
		for {
			idx, _ := s.Index(at)
			next, owned := idx.Chord.NextHop(key)
			if owned {
				break
			}
			path = append(path, next.Addr)
			at = next.Addr
		}
		if len(path) >= 2 {
			return key, path[0]
		}
	}
	t.Fatal("no key routes through an intermediate hop")
	return 0, ""
}

// TestRoutedHopFallsBackAsFindSuccessor: a hop whose next hop is down falls
// back along the eager candidate order and evicts exactly what
// find_successor's hop does. Two identical deployments lose the same
// intermediate hop; one resolves the key, the other reads it routed, and
// they find the same owner after the same hops, retry and evict the same
// peers from the same nodes, and are left with the same successor lists.
func TestRoutedHopFallsBackAsFindSuccessor(t *testing.T) {
	build := func() (*System, simnet.VTime, *flight.Recorder) {
		s, now := newTestSystem(t, 24)
		flt := flight.NewRecorder(0)
		s.Net().SetFlightRecorder(flt)
		return s, now, flt
	}
	ref, now, refFlt := build()
	routed, _, routedFlt := build()
	entry := ref.IndexNodes()[0].Addr()
	key, victim := routeThrough(t, ref, entry, rand.New(rand.NewSource(5)))
	ref.FailNode(victim)
	routed.FailNode(victim)

	owner, hops, _, err := ref.ResolveKey(entry, key, now)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := NewLookupClient(routed).Lookup(entry, key, trace.TraceContext{}, trace.TraceContext{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if row.Index != owner || row.Hops != hops {
		t.Errorf("routed read found %s after %d hops, find_successor %s after %d", row.Index, row.Hops, owner, hops)
	}
	type step struct{ node, kind, peer string }
	steps := func(flt *flight.Recorder) []step {
		var out []step
		for _, ev := range flt.Events() {
			if ev.Kind == flight.KindRetry || ev.Kind == flight.KindEvict {
				out = append(out, step{ev.Node, ev.Kind, ev.Peer})
			}
		}
		return out
	}
	want, got := steps(refFlt), steps(routedFlt)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("routed read's retries and evictions %v, find_successor's %v", got, want)
	}
	for i, n := range ref.IndexNodes() {
		m := routed.IndexNodes()[i]
		if !slices.Equal(n.Chord.SuccessorList(), m.Chord.SuccessorList()) {
			t.Errorf("%s: successor list %v after the routed read, %v after find_successor", n.Addr(), m.Chord.SuccessorList(), n.Chord.SuccessorList())
		}
	}
}

// oneKeyAllocs is the allocations of a one-key LookupBatch from `from`,
// averaged over keys.
func oneKeyAllocs(t *testing.T, s *System, from simnet.Addr, keys []chord.ID, now simnet.VTime) float64 {
	t.Helper()
	client := NewLookupClient(s)
	k := 0
	return testing.AllocsPerRun(len(keys)*8, func() {
		if _, _, err := client.LookupBatch(from, keys[k%len(keys):k%len(keys)+1], trace.TraceContext{}, now); err != nil {
			t.Fatal(err)
		}
		k++
	})
}

// TestRoutedLookupAllocs holds a routed point lookup to its allocation
// budget: a one-key LookupBatch from a provider that holds no owner arcs
// on a 32-node ring, averaged over the keys of the fixture. The
// resolve-then-read path it replaced took 11 on the same fixture.
func TestRoutedLookupAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, storage, keys, now := randomSystem(t, rng, 32, 32, 2)
	st, _ := s.Storage(storage[0])
	st.dropArcs()
	allocs := oneKeyAllocs(t, s, storage[0], keys, now)
	t.Logf("a routed one-key LookupBatch allocates %.1f times", allocs)
	if allocs > 8 {
		t.Errorf("a routed one-key LookupBatch allocates %.1f times, want at most 8", allocs)
	}
}

// TestDirectLookupAllocs holds a direct point lookup to its allocation
// budget: a one-key LookupBatch on TestRoutedLookupAllocs's fixture, from a
// provider that holds the arcs of the keys it reads.
func TestDirectLookupAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, storage, keys, now := randomSystem(t, rng, 32, 32, 2)
	st, _ := s.Storage(storage[0])
	held := slices.DeleteFunc(keys, func(k chord.ID) bool {
		_, ok := st.ownerArc(s.Epoch(), k)
		return !ok
	})
	if len(held) == 0 {
		t.Fatal("the provider holds the arc of no key")
	}
	allocs := oneKeyAllocs(t, s, storage[0], held, now)
	t.Logf("a direct one-key LookupBatch allocates %.1f times", allocs)
	if allocs > 4 {
		t.Errorf("a direct one-key LookupBatch allocates %.1f times, want at most 4", allocs)
	}
}

// TestDirectReadMatchesRouted is the direct read's differential. On random
// rings (Bits 4–24, 1–64 index nodes, Replication 1–3) providers publish
// and retract while index nodes join and leave gracefully, and crash and
// recover, a provider then republishing. After every step, every key a
// provider holds the owner arc of is read from it directly — 0 hops, 2
// legs, from the arc's owner — and every key's row and owner read from it
// equal a routed read's from a reader that holds no arcs. A batch of keys
// from a provider goes out as one direct read per owner it holds an arc
// of plus one routed read of the rest. On a fresh deployment an owner
// crashed for a FaultPlan window yields its replica holder's row or a
// typed *LookupError, after two FailTimeouts; a lost leg of a direct read
// is re-sent to the owner, and the read still takes 0 hops.
func TestDirectReadMatchesRouted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	direct, mixed, replicaServed, typed, resent := 0, 0, 0, 0, 0
	for trial := 0; trial < 12; trial++ {
		bits := uint(4 + rng.Intn(21))
		size := min(1+rng.Intn(64), 1<<bits/2)
		if trial == 0 {
			bits, size = 24, 64
		}
		s, storage, keys, now := randomSystem(t, rng, bits, size, 1+rng.Intn(3))
		mask := chord.ID(1)<<bits - 1
		addKeys := func(ks ...chord.ID) { // a batch reads distinct keys
			for _, k := range ks {
				if !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
		}
		for i := 0; i < 8; i++ {
			addKeys(chord.ID(rng.Uint64()) & mask)
		}
		_, now, err := s.AddStorageNode("reader", now) // publishes nothing, so holds no arcs
		if err != nil {
			t.Fatal(err)
		}
		client := NewLookupClient(s)
		rec := trace.NewBuffer()
		s.Net().SetRecorder(rec)
		ft := s.Net().Config().FailTimeout
		fail := func(step, format string, args ...any) {
			t.Helper()
			t.Fatalf("bits %d, %d nodes, R %d, after %s: %s", bits, size, s.Config().Replication, step, fmt.Sprintf(format, args...))
		}

		check := func(step string) map[chord.ID]LookupRow {
			t.Helper()
			want := map[chord.ID]LookupRow{}
			for _, key := range keys {
				row, _, err := client.Lookup("reader", key, trace.TraceContext{}, trace.TraceContext{}, now)
				if err != nil {
					fail(step, "routed read of %v: %v", key, err)
				}
				want[key] = row
			}
			for _, p := range storage {
				for _, key := range keys {
					owner := client.arcOwner(p, key)
					before := s.Net().Metrics()
					got, _, err := client.Lookup(p, key, trace.TraceContext{}, trace.TraceContext{}, now)
					if err != nil {
						fail(step, "%s reads %v: %v", p, key, err)
					}
					legs := legsSince(s, before)
					if owner != "" {
						if got.Hops != 0 || legs != 2 || got.Index != owner {
							fail(step, "%s reads %v inside %s's arc in %d hops, %d legs, from %s; want 0 hops, 2 legs", p, key, owner, got.Hops, legs, got.Index)
						}
						direct++
					}
					if w := want[key]; !slices.Equal(got.Postings, w.Postings) || got.Index != w.Index {
						fail(step, "%s reads %v (arc owner %q) as %v from %s, the routed read %v from %s", p, key, owner, got.Postings, got.Index, w.Postings, w.Index)
					}
				}

				batch := slices.Clone(keys)
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				batch = batch[:1+rng.Intn(len(batch))]
				var owners []simnet.Addr
				unheld := false
				for _, key := range batch {
					if o := client.arcOwner(p, key); o == "" {
						unheld = true
					} else if !slices.Contains(owners, o) {
						owners = append(owners, o)
					}
				}
				rec.Reset()
				rows, _, err := client.LookupBatch(p, batch, trace.Root(1), now)
				if err != nil {
					fail(step, "%s reads %d keys: %v", p, len(batch), err)
				}
				for i, key := range batch {
					if w := want[key]; !slices.Equal(rows[i].Postings, w.Postings) || rows[i].Index != w.Index {
						fail(step, "%s's batch reads %v as %v from %s, the routed read %v from %s", p, key, rows[i].Postings, rows[i].Index, w.Postings, w.Index)
					}
					if o := client.arcOwner(p, key); o != "" && rows[i].Hops != 0 {
						fail(step, "%s's batch reads %v inside %s's arc in %d hops", p, key, o, rows[i].Hops)
					}
				}
				var sent []simnet.Addr // the batch's first legs
				for _, sp := range rec.Spans() {
					if sp.Name == MethodRoutedRead && sp.From == string(p) {
						sent = append(sent, simnet.Addr(sp.To))
					}
				}
				wantSent := len(owners)
				if unheld {
					wantSent++
				}
				if len(sent) != wantSent || slices.ContainsFunc(owners, func(o simnet.Addr) bool { return !slices.Contains(sent, o) }) {
					fail(step, "%s's batch of %d keys left as reads to %v; want one to each of %v and %d routed", p, len(batch), sent, owners, wantSent-len(owners))
				}
				if len(owners) > 0 && unheld {
					mixed++
				}
			}
			return want
		}

		want := check("set-up")

		// A crash window over the owner of a key a provider holds the arc of.
		p := storage[rng.Intn(len(storage))]
		for _, key := range keys {
			owner := client.arcOwner(p, key)
			if owner == "" || len(liveIndex(s)) < 2 {
				continue
			}
			s.Net().SetFaults(&simnet.FaultPlan{Crashes: []simnet.CrashWindow{{Node: owner, From: now}}})
			rows, done, err := client.LookupBatch(p, []chord.ID{key}, trace.TraceContext{}, now)
			s.Net().SetFaults(nil)
			var le *LookupError
			switch {
			case err == nil:
				if rows[0].Index == owner || !slices.Equal(rows[0].Postings, want[key].Postings) {
					fail("set-up", "with %s crashed %s reads %v as %v from %s; want %v from a replica holder", owner, p, key, rows[0].Postings, rows[0].Index, want[key].Postings)
				}
				replicaServed++
			case errors.As(err, &le):
				typed++
			default:
				fail("set-up", "with %s crashed %s reads %v: untyped error %v", owner, p, key, err)
			}
			if done < now.Add(2*ft) {
				fail("set-up", "with %s crashed %s's read of %v ended at %v, before two FailTimeouts", owner, p, key, done)
			}
			break
		}

		// A lost leg of a direct read: re-sent to the owner, 0 hops.
		for _, key := range keys {
			owner := client.arcOwner(p, key)
			if owner == "" {
				continue
			}
			clean, cleanDone, err := client.Lookup(p, key, trace.TraceContext{}, trace.TraceContext{}, now)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed < 200; seed++ {
				rec.Reset()
				s.Net().SetFaults(&simnet.FaultPlan{Seed: seed, LossRate: 0.3})
				row, done, err := client.Lookup(p, key, trace.Root(1), trace.TraceContext{}, now)
				s.Net().SetFaults(nil)
				lost := 0
				for _, sp := range rec.Spans() {
					if sp.Name != MethodRoutedRead {
						continue
					}
					if sp.Note == flight.KindLost {
						lost++
					}
					if sp.From == string(p) && sp.To != string(owner) {
						fail("set-up", "%s's direct read of %v under loss left for %s, not its owner %s", p, key, sp.To, owner)
					}
				}
				if err != nil || lost != 1 {
					continue
				}
				if row.Hops != 0 || !slices.Equal(row.Postings, clean.Postings) || row.Index != owner || done != cleanDone.Add(ft) {
					fail("set-up", "%s's direct read of %v after one lost leg: %+v at %v; want %+v at %v", p, key, row, done, clean, cleanDone.Add(ft))
				}
				resent++
				break
			}
			break
		}

		joined := 0
		for step := 0; step < 12; step++ {
			var what string
			live := liveIndex(s)
			switch op := rng.Intn(6); {
			case op <= 1:
				p := storage[rng.Intn(len(storage))]
				if op == 0 {
					var triples []rdf.Triple
					for j := 0; j < 1+rng.Intn(4); j++ {
						tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", rng.Intn(9))), P: fp([]string{"knows", "name", "mbox", "likes"}[rng.Intn(4)]), O: ex(fmt.Sprintf("o%d", rng.Intn(9)))}
						triples = append(triples, tr)
						k := TripleKeys(tr, bits)
						addKeys(k[:]...)
					}
					what = "publish at " + string(p)
					now, err = s.Publish(p, triples, now)
				} else {
					node, _ := s.Storage(p)
					what = "retract at " + string(p)
					now, err = s.Retract(p, node.Graph.Triples()[:min(2, node.Graph.Size())], now)
				}
			case op == 2:
				addr := simnet.Addr(fmt.Sprintf("idx-join-%d", joined))
				joined++
				id := chord.HashID(string(addr), bits)
				if slices.ContainsFunc(s.IndexNodes(), func(n *IndexNode) bool { return n.ID() == id }) {
					continue // the ring has no room for a second node at one identifier
				}
				what = "join of " + string(addr)
				_, now, err = s.AddIndexNodeWithID(addr, id, now)
			case op == 3 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				what = "graceful leave of " + string(addr)
				now, err = s.RemoveIndexGraceful(addr, now)
			case op == 4 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				p := storage[rng.Intn(len(storage))]
				what = "crash and recovery of " + string(addr) + ", then republish at " + string(p)
				s.FailNode(addr)
				s.RecoverNode(addr)
				now, err = s.Republish(p, now)
			default:
				continue
			}
			if err != nil {
				t.Logf("bits %d, %d nodes: %s: %v", bits, size, what, err)
			}
			check(what)
		}
	}
	if direct == 0 || mixed == 0 || replicaServed == 0 || typed == 0 || resent == 0 {
		t.Fatalf("%d direct reads, %d mixed batches, %d replica-served and %d typed crash reads, %d re-sent direct reads; want each > 0",
			direct, mixed, replicaServed, typed, resent)
	}
	t.Logf("%d direct reads, %d mixed batches, %d replica-served and %d typed crash reads, %d re-sent direct reads",
		direct, mixed, replicaServed, typed, resent)
}
