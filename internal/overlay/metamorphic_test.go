package overlay

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// metaVocab is a small closed vocabulary so random retractions hit
// previously published triples often.
func metaVocab() []rdf.Triple {
	preds := []rdf.Term{
		rdf.NewIRI("http://xmlns.com/foaf/0.1/knows"),
		rdf.NewIRI("http://xmlns.com/foaf/0.1/likes"),
		rdf.NewIRI("http://xmlns.com/foaf/0.1/name"),
	}
	var pool []rdf.Triple
	for s := 0; s < 5; s++ {
		for pi, p := range preds {
			for o := 0; o < 2; o++ {
				var obj rdf.Term
				if pi == 2 {
					obj = rdf.NewLiteral(fmt.Sprintf("Name%d-%d", s, o))
				} else {
					obj = rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", (s+o+1)%5))
				}
				pool = append(pool, rdf.Triple{
					S: rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", s)), P: p, O: obj,
				})
			}
		}
	}
	return pool
}

// metaOp is one randomly drawn index mutation.
type metaOp struct {
	kind     int // 0 publish, 1 publish into named graph, 2 retract, 3 republish, 4 converge, 5 join of metaJoiner, 6 its graceful leave
	provider simnet.Addr
	graph    string
	triples  []rdf.Triple
}

// metaJoiner is the index node a membership round adds and removes.
const metaJoiner = simnet.Addr("idx-3")

func newMetaSystem(t *testing.T, serialPublish bool, providers []simnet.Addr) (*System, simnet.VTime) {
	t.Helper()
	return newMetaSystemCfg(t, Config{Bits: 16, Replication: 2, SerialPublish: serialPublish,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}}, providers)
}

func newMetaSystemCfg(t *testing.T, cfg Config, providers []simnet.Addr) (*System, simnet.VTime) {
	t.Helper()
	s := NewSystem(cfg)
	now := simnet.VTime(0)
	for i := 0; i < 3; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	for _, p := range providers {
		_, done, err := s.AddStorageNode(p, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, now
}

func applyMetaOps(t *testing.T, s *System, ops []metaOp, at simnet.VTime) simnet.VTime {
	t.Helper()
	now := at
	for _, op := range ops {
		var done simnet.VTime
		var err error
		switch op.kind {
		case 0:
			done, err = s.Publish(op.provider, op.triples, now)
		case 1:
			done, err = s.PublishGraph(op.provider, op.graph, op.triples, now)
		case 2:
			done, err = s.Retract(op.provider, op.triples, now)
		case 3:
			done, err = s.Republish(op.provider, now)
		case 5:
			_, done, err = s.AddIndexNode(metaJoiner, now)
		case 6:
			done, err = s.RemoveIndexGraceful(metaJoiner, now)
		default:
			done = s.Converge(now)
		}
		if err != nil {
			t.Fatalf("op %+v: %v", op, err)
		}
		now = done
	}
	return now
}

// drawMetaOps draws a random mutation sequence from the shared vocabulary.
func drawMetaOps(rng *rand.Rand, providers []simnet.Addr, graphs []string, pool []rdf.Triple) []metaOp {
	nOps := 8 + rng.Intn(12)
	ops := make([]metaOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		op := metaOp{kind: rng.Intn(4), provider: providers[rng.Intn(len(providers))]}
		switch op.kind {
		case 1:
			op.graph = graphs[rng.Intn(len(graphs))]
			fallthrough
		case 0:
			n := 1 + rng.Intn(6)
			for j := 0; j < n; j++ {
				op.triples = append(op.triples, pool[rng.Intn(len(pool))])
			}
		case 2:
			n := 1 + rng.Intn(4)
			for j := 0; j < n; j++ {
				op.triples = append(op.triples, pool[rng.Intn(len(pool))])
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// indexState renders the aggregate index (every live index node's
// location table, replicas included) canonically for comparison.
func indexState(s *System) string {
	var sb strings.Builder
	for _, n := range s.IndexNodes() {
		fmt.Fprintf(&sb, "node %s (%v)\n", n.Addr(), n.ID())
		rows := n.Table.Snapshot()
		keys := make([]string, 0, len(rows))
		byKey := map[string][]Posting{}
		for k, row := range rows {
			ks := fmt.Sprintf("%020d", uint64(k))
			keys = append(keys, ks)
			sorted := append([]Posting(nil), row...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
			byKey[ks] = sorted
		}
		sort.Strings(keys)
		for _, ks := range keys {
			fmt.Fprintf(&sb, "  key %s -> %v\n", ks, byKey[ks])
		}
	}
	return sb.String()
}

// assertFreqsPositive checks the location-table invariant that surviving
// postings carry strictly positive frequencies (zero or negative postings
// must have been removed).
func assertFreqsPositive(t *testing.T, s *System, label string) {
	t.Helper()
	for _, n := range s.IndexNodes() {
		for key, row := range n.Table.Snapshot() {
			for _, p := range row {
				if p.Freq <= 0 {
					t.Errorf("%s: node %s key %v posting %s has freq %d, want > 0",
						label, n.Addr(), key, p.Node, p.Freq)
				}
			}
		}
	}
}

// TestMetamorphicIndexRebuild drives random interleavings of Publish,
// PublishGraph, Retract and Republish (testing/quick over seeded trials)
// through the serial and the parallel publication pipelines, and checks
// four metamorphic invariants: (1) both pipelines leave bit-identical
// location tables; (2) the tables equal those of a from-scratch rebuild
// that publishes only the providers' final graphs; (3) every surviving
// posting frequency is positive; (4) every replica row equals its
// primary's — and the parallel pipeline never costs
// more traffic than the serial one. One more input repeats one provider's
// edits: on the parallel pipeline, an edit whose keys all lie in owner arcs
// learned earlier resolves nothing, also right after a Converge that moved
// nothing (TestMaintenanceThatMovesNothingKeepsArcs has the rounds that move
// keys). A last input has an index node
// join and leave between one provider's edits: the three index states
// still agree, and arcs outlive each event.
func TestMetamorphicIndexRebuild(t *testing.T) {
	pool := metaVocab()
	providers := []simnet.Addr{"P0", "P1", "P2"}
	graphs := []string{"urn:g1", "urn:g2"}

	check := func(label string, ops []metaOp) bool {
		serialSys, now := newMetaSystem(t, true, providers)
		applyMetaOps(t, serialSys, ops, now)
		parSys, now := newMetaSystem(t, false, providers)
		applyMetaOps(t, parSys, ops, now)

		serialState, parState := indexState(serialSys), indexState(parSys)
		if serialState != parState {
			t.Errorf("%s: serial and parallel pipelines diverged\nserial:\n%s\nparallel:\n%s",
				label, serialState, parState)
			return false
		}
		assertFreqsPositive(t, serialSys, label+" serial")
		assertFreqsPositive(t, parSys, label+" parallel")
		if diffs := replicaDiffs(parSys, nil); diffs != nil {
			t.Errorf("%s: replica rows differ from their primaries: %v", label, diffs)
			return false
		}

		serialTraffic := serialSys.Net().Metrics()
		parTraffic := parSys.Net().Metrics()
		if parTraffic.Messages > serialTraffic.Messages || parTraffic.Bytes > serialTraffic.Bytes {
			t.Errorf("%s: parallel pipeline cost more traffic than serial: %d/%d msgs, %d/%d bytes",
				label, parTraffic.Messages, serialTraffic.Messages, parTraffic.Bytes, serialTraffic.Bytes)
			return false
		}

		// From-scratch rebuild: publish only the final graphs.
		rebuildSys, now := newMetaSystem(t, false, providers)
		for _, st := range parSys.StorageNodes() {
			done, err := rebuildSys.Publish(st.Addr(), st.Graph.Triples(), now)
			if err != nil {
				t.Fatalf("%s: rebuild publish: %v", label, err)
			}
			now = done
			for _, name := range st.GraphNames() {
				done, err = rebuildSys.PublishGraph(st.Addr(), name, st.NamedGraph(name).Triples(), now)
				if err != nil {
					t.Fatalf("%s: rebuild publish graph: %v", label, err)
				}
				now = done
			}
		}
		if rebuildState := indexState(rebuildSys); rebuildState != parState {
			t.Errorf("%s: interleaved ops diverged from from-scratch rebuild\nops:\n%s\nrebuild:\n%s",
				label, parState, rebuildState)
			return false
		}
		return true
	}

	trial := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return check(fmt.Sprintf("seed %d", seed), drawMetaOps(rng, providers, graphs, pool))
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(trial, cfg); err != nil {
		t.Fatal(err)
	}

	// The repeat input: P0 publishes, retracts and publishes new triples in
	// one epoch, then edits once more after a Converge of the converged ring.
	repeat := []metaOp{
		{kind: 0, provider: "P0", triples: pool[:6]},
		{kind: 2, provider: "P0", triples: pool[:3]},
		{kind: 0, provider: "P0", triples: pool[6:12]},
		{kind: 4},
		{kind: 0, provider: "P0", triples: pool[12:18]},
	}
	if !check("repeat edits", repeat) {
		return
	}
	s, now := newMetaSystem(t, false, providers)
	node, _ := s.Storage("P0")
	epoch := s.Epoch()
	for i, op := range repeat {
		inArcs := op.kind != 4
		for _, tr := range op.triples {
			for _, key := range TripleKeys(tr, s.Config().Bits) {
				if _, ok := node.ownerArc(s.Epoch(), key); !ok {
					inArcs = false
				}
			}
		}
		before := s.Net().Metrics()
		now = applyMetaOps(t, s, []metaOp{op}, now)
		resolves := s.Net().Metrics().Sub(before).PerMethod[chord.MethodFindSuccessorBatch].Messages
		switch {
		case op.kind == 4:
			if s.Epoch() == epoch {
				t.Fatalf("repeat edit %d: Converge left the epoch at %d", i, epoch)
			}
		case i > 0:
			if !inArcs {
				t.Fatalf("repeat edit %d: a key lies outside the arcs the first edit learned", i)
			}
			if resolves != 0 {
				t.Errorf("repeat edit %d: %d find_successor_batch messages with every key in a learned arc, want 0", i, resolves)
			}
		default:
			if inArcs || resolves == 0 {
				t.Errorf("repeat edit %d: in arcs %v, %d find_successor_batch messages; the first edit must resolve", i, inArcs, resolves)
			}
		}
	}

	// The membership round: idx-3 joins and leaves between P0's edits.
	// Each moves one owner arc, so the first edit after it (ops 3 and 6)
	// finds keys in arcs P0 learned before it, and the edit repeated
	// right after (ops 4 and 7) resolves nothing.
	round := []metaOp{
		{kind: 0, provider: "P0", triples: pool[:12]},
		{kind: 0, provider: "P1", triples: pool[12:24]},
		{kind: 5},
		{kind: 0, provider: "P0", triples: pool[12:18]},
		{kind: 2, provider: "P0", triples: pool[12:18]},
		{kind: 6},
		{kind: 2, provider: "P0", triples: pool[:6]},
		{kind: 0, provider: "P0", triples: pool[:6]},
	}
	if !check("membership round", round) {
		return
	}
	s, now = newMetaSystem(t, false, providers)
	node, _ = s.Storage("P0")
	for i, op := range round {
		held := 0
		for _, tr := range op.triples {
			for _, key := range TripleKeys(tr, s.Config().Bits) {
				if _, ok := node.ownerArc(s.Epoch(), key); ok {
					held++
				}
			}
		}
		before := s.Net().Metrics()
		now = applyMetaOps(t, s, []metaOp{op}, now)
		resolves := s.Net().Metrics().Sub(before).PerMethod[chord.MethodFindSuccessorBatch].Messages
		switch {
		case (i == 3 || i == 6) && held == 0:
			t.Errorf("membership round op %d: no key in an arc carried over the membership event", i)
		case (i == 4 || i == 7) && resolves != 0:
			t.Errorf("membership round op %d: %d find_successor_batch messages for a repeated edit, want 0", i, resolves)
		}
	}
}

// TestMutateAfterPublishDoesNotAlterIndex pins the wire-isolation
// ownership contract at the API boundary: Publish and PublishGraph must
// not retain references into the caller's triple slice, so mutating the
// slice afterwards (as a provider reusing a scratch buffer would) cannot
// corrupt the distributed location tables.
func TestMutateAfterPublishDoesNotAlterIndex(t *testing.T) {
	pool := metaVocab()
	providers := []simnet.Addr{"P0", "P1"}
	for _, serial := range []bool{true, false} {
		s, now := newMetaSystem(t, serial, providers)

		batch := append([]rdf.Triple(nil), pool[:6]...)
		done, err := s.Publish("P0", batch, now)
		if err != nil {
			t.Fatalf("serial=%v: Publish: %v", serial, err)
		}
		now = done
		graphBatch := append([]rdf.Triple(nil), pool[6:10]...)
		done, err = s.PublishGraph("P1", "urn:g1", graphBatch, now)
		if err != nil {
			t.Fatalf("serial=%v: PublishGraph: %v", serial, err)
		}
		now = done

		before := indexState(s)

		// Clobber every element of both caller-owned slices.
		for i := range batch {
			batch[i] = pool[(i+10)%len(pool)]
		}
		for i := range graphBatch {
			graphBatch[i] = rdf.Triple{
				S: rdf.NewIRI("http://example.org/clobbered"),
				P: rdf.NewIRI("http://example.org/clobbered"),
				O: rdf.NewLiteral("clobbered"),
			}
		}

		if after := indexState(s); after != before {
			t.Errorf("serial=%v: mutating the caller's slices changed the index\nbefore:\n%s\nafter:\n%s",
				serial, before, after)
		}

		// The provider's republishable graph must be isolated too.
		done, err = s.Republish("P0", now)
		if err != nil {
			t.Fatalf("serial=%v: Republish: %v", serial, err)
		}
		_ = done
		if after := indexState(s); after != before {
			t.Errorf("serial=%v: republish after caller mutation diverged\nbefore:\n%s\nafter:\n%s",
				serial, before, after)
		}
	}
}

// metaBurst is the number of Zipf-drawn lookups fired between consecutive
// mutations in the adaptive-equivalence trials: large enough that hot keys
// cross the promotion threshold and the replica fast path actually serves
// reads.
const metaBurst = 8

// renderPostings renders a posting row canonically (sorted by node).
func renderPostings(ps []Posting) string {
	sorted := append([]Posting(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	return fmt.Sprint(sorted)
}

// TestMetamorphicAdaptiveEquivalence pins the central property of the
// workload-adaptive index (DESIGN.md §9): under any seeded interleaving of
// publish/retract/republish mutations with Zipf-skewed lookup bursts,
// turning Config.Adaptive on must not change a single query answer nor the
// final location tables — a hot read serves only a row the owner returned,
// never a second source of truth — and on the skewed workload the
// adaptive system must send no more messages than the static one, the
// tier's misses aside: a hot read answered Hit=false costs its two legs
// before the owner's read, and a static read from a provider that holds
// the key's arc is already one direct call, so the misses are the tier's
// price, not a saving. Bytes are not compared, since every adaptive read
// carries an epoch per key. The trials must reach the replica path, or the
// check would compare static with static.
func TestMetamorphicAdaptiveEquivalence(t *testing.T) {
	pool := metaVocab()
	providers := []simnet.Addr{"P0", "P1", "P2"}
	graphs := []string{"urn:g1", "urn:g2"}

	// The lookup targets are the vocabulary's ⟨p,o⟩ pattern keys,
	// deduplicated; the Zipf draw concentrates each burst on a few of
	// them, the hot-key regime the detector is built for.
	var keys []chord.ID
	seen := map[chord.ID]bool{}
	for _, tr := range pool {
		key, _, ok := PatternKey(rdf.Triple{P: tr.P, O: tr.O}, 16)
		if ok && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("vocabulary yielded %d distinct pattern keys, want >= 2", len(keys))
	}

	adaptiveCfg := func(adaptive bool) Config {
		return Config{Bits: 16, Replication: 2, Adaptive: adaptive,
			Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}}
	}

	replicaHits, missedLegs := 0, int64(0)
	trial := func(seed int64) bool {
		hits := 0
		rng := rand.New(rand.NewSource(seed))
		ops := drawMetaOps(rng, providers, graphs, pool)
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), 1.6, 1, uint64(len(keys)-1))

		staticSys, nowS := newMetaSystemCfg(t, adaptiveCfg(false), providers)
		adaptSys, nowA := newMetaSystemCfg(t, adaptiveCfg(true), providers)
		staticClient := NewLookupClient(staticSys)
		adaptClient := NewLookupClient(adaptSys)

		for oi, op := range ops {
			nowS = applyMetaOps(t, staticSys, []metaOp{op}, nowS)
			nowA = applyMetaOps(t, adaptSys, []metaOp{op}, nowA)
			for q := 0; q < metaBurst; q++ {
				key := keys[int(zipf.Uint64())]
				rowS, doneS, err := staticClient.Lookup("P0", key,
					trace.TraceContext{}, trace.TraceContext{}, nowS)
				if err != nil {
					t.Fatalf("seed %d op %d query %d: static lookup: %v", seed, oi, q, err)
				}
				nowS = doneS
				rowA, doneA, err := adaptClient.Lookup("P0", key,
					trace.TraceContext{}, trace.TraceContext{}, nowA)
				if err != nil {
					t.Fatalf("seed %d op %d query %d: adaptive lookup: %v", seed, oi, q, err)
				}
				nowA = doneA
				if rowA.ReplicaHit {
					hits++
				}
				if s, a := renderPostings(rowS.Postings), renderPostings(rowA.Postings); s != a {
					t.Errorf("seed %d op %d query %d key %v: answers diverged (replica hit %v)\nstatic:   %s\nadaptive: %s",
						seed, oi, q, key, rowA.ReplicaHit, s, a)
					return false
				}
			}
		}

		if s, a := indexState(staticSys), indexState(adaptSys); s != a {
			t.Errorf("seed %d: final location tables diverged\nstatic:\n%s\nadaptive:\n%s", seed, s, a)
			return false
		}
		assertFreqsPositive(t, staticSys, fmt.Sprintf("seed %d static", seed))
		assertFreqsPositive(t, adaptSys, fmt.Sprintf("seed %d adaptive", seed))

		// Fault-free, every hot read is one call of two legs: those that
		// served no row are the misses.
		st, ad := staticSys.Net().Metrics(), adaptSys.Net().Metrics()
		missed := ad.PerMethod[MethodHotLookup].Messages - 2*int64(hits)
		replicaHits, missedLegs = replicaHits+hits, missedLegs+missed
		if ad.Messages-missed > st.Messages {
			t.Errorf("seed %d: adaptive sent more than static on the hot-key workload: %d msgs (%d of them missed %s legs) against %d",
				seed, ad.Messages, missed, MethodHotLookup, st.Messages)
			return false
		}
		return true
	}

	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(trial, cfg); err != nil {
		t.Fatal(err)
	}
	if replicaHits == 0 {
		t.Fatal("no adaptive lookup was served by a hot read: the trials never reached the replica path")
	}
	t.Logf("%d adaptive lookups served by a hot read, %d legs of missed ones", replicaHits, missedLegs)
}
