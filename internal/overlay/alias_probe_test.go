package overlay

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
	"adhocshare/internal/trace"
)

// probeNodes wraps the handler of every node of s the probe has not seen;
// a node that joins later is wrapped by the next call.
func probeNodes(p *testutil.AliasProbe, s *System) {
	for _, n := range s.IndexNodes() {
		if p.Node(string(n.Addr()), n) {
			s.Net().Register(n.Addr(), simnet.HandlerFunc(testutil.Wrap(p, string(n.Addr()), n.HandleCall)))
		}
	}
	for _, n := range s.StorageNodes() {
		if p.Node(string(n.Addr()), n) {
			s.Net().Register(n.Addr(), simnet.HandlerFunc(testutil.Wrap(p, string(n.Addr()), n.HandleCall)))
		}
	}
}

// TestAliasProbeOverlay runs an index's write and read paths under the
// alias probe (testutil.AliasProbe) on the serial, parallel and adaptive
// pipelines: seeded edit sequences, an index-node join and graceful leave,
// a crash and recovery that leave replicas to repair, routed and direct
// reads (a hot-key storm when adaptive), a store.match and a drop_node
// broadcast. No payload may share memory with a node or change after
// delivery, and every method listed must be delivered.
func TestAliasProbeOverlay(t *testing.T) {
	pool, providers, graphs := metaVocab(), []simnet.Addr{"P0", "P1", "P2"}, []string{"urn:g1", "urn:g2"}
	var keys []chord.ID
	for _, tr := range pool {
		k := TripleKeys(tr, 16)
		keys = append(keys, k[:]...)
	}
	for _, cfg := range []Config{{SerialPublish: true}, {}, {Adaptive: true}} {
		cfg.Bits, cfg.Replication, cfg.Net = 16, 2, simnet.Config{BaseLatency: 1e6, Bandwidth: 1 << 20}
		p := testutil.NewAliasProbe(reflect.TypeOf((*simnet.Network)(nil)).Elem(), reflect.TypeOf((*System)(nil)).Elem())
		s, now := newMetaSystemCfg(t, cfg, providers)
		probeNodes(p, s)
		rng := rand.New(rand.NewSource(1))
		now = applyMetaOps(t, s, append(drawMetaOps(rng, providers, graphs, pool), metaOp{kind: 5}), now)
		probeNodes(p, s)
		now = applyMetaOps(t, s, append(drawMetaOps(rng, providers, graphs, pool), metaOp{kind: 6}), now)
		s.FailNode("idx-1")
		now = applyMetaOps(t, s, []metaOp{{kind: 4}, {kind: 0, provider: "P0", triples: pool[:12]}, {kind: 2, provider: "P1", triples: pool[:6]}}, now)
		s.RecoverNode("idx-1")
		now = applyMetaOps(t, s, []metaOp{{kind: 4}, {kind: 0, provider: "P1", triples: pool[:12]}, {kind: 3, provider: "P0"}}, now)
		client := NewLookupClient(s)
		for i := range 3 * hotThreshold {
			for _, from := range []simnet.Addr{"P0", "idx-0", "ext"} {
				_, done, err := client.LookupBatch(from, keys[i%7:i%7+1+i%5], trace.TraceContext{}, now)
				if err != nil {
					t.Fatal(err)
				}
				now = done
			}
		}
		match := MatchReq{Units: []MatchUnit{{Pattern: rdf.Triple{S: rdf.NewVar("s"), P: pool[0].P, O: rdf.NewVar("o")}}}}
		if _, _, err := s.Net().Call("P0", "P1", MethodMatch, match, s.DropStorageEverywhere("P2", now)); err != nil {
			t.Fatal(err)
		}
		methods := []string{MethodPutBatch, MethodReplica, MethodRoutedRead, MethodTransfer, MethodHandover,
			MethodReplicaRepair, MethodDropNode, MethodMatch, chord.MethodFindSuccessorBatch, chord.MethodGetPredecessor,
			chord.MethodGetSuccList, chord.MethodNotify, chord.MethodSetPredecessor, chord.MethodSetSuccessor, chord.MethodUpdateFinger}
		switch {
		case cfg.SerialPublish:
			methods = append(methods, chord.MethodFindSuccessor)
		case cfg.Adaptive:
			methods = append(methods, MethodHotLookup)
		}
		p.Check(t, methods...)
	}
}
