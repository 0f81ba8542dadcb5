package overlay

import (
	"fmt"
	"math/rand"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// TestOwnerArcsAgreeWithRing holds publication's owner arcs to the ring. On
// random rings (Bits 8–24, 2–64 index nodes, and a ring of one) providers
// publish and retract while index nodes join, leave gracefully, crash and
// recover and the ring stabilizes. After every step, each key that a
// provider's arcs answer in the current epoch, with a live owner, is owned
// by the index node System.ResolveKey finds from that provider. The keys
// checked are the published ones, both ends of every arc and a random
// sample; the wrap-around arc (start past the owner) and the one-node
// ring's whole-circle arc must each answer some of them.
func TestOwnerArcsAgreeWithRing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	hits, wrapHits, wholeHits := 0, 0, 0
	for trial := 0; trial < 8; trial++ {
		bits := uint(8 + rng.Intn(17))
		size := 2 + rng.Intn(63)
		switch trial {
		case 0:
			bits, size = 24, 64
		case 1:
			size = 1
		}
		s, storage, keys, now := randomSystem(t, rng, bits, size, 1+rng.Intn(2))
		mask := chord.ID(1)<<bits - 1
		joined := 0
		var failed []simnet.Addr

		check := func(step string) {
			t.Helper()
			epoch := s.Epoch()
			for _, p := range storage {
				node, _ := s.Storage(p)
				probes := append([]chord.ID(nil), keys...)
				for _, a := range node.arcs {
					probes = append(probes, a.Start, (a.Start+1)&mask, a.Owner.ID, (a.Owner.ID+1)&mask)
				}
				for i := 0; i < 16; i++ {
					probes = append(probes, chord.ID(rng.Uint64())&mask)
				}
				for _, key := range probes {
					arc, ok := node.ownerArc(epoch, key)
					if !ok || !s.Net().Alive(arc.Owner.Addr) {
						continue
					}
					want, _, _, err := s.ResolveKey(p, key, now)
					if err != nil {
						continue // the ring cannot route this key at the moment
					}
					if arc.Owner.Addr != want {
						t.Fatalf("bits %d, %d nodes, after %s: %s's arc (%v, %v] gives %v to %s, the ring to %s",
							bits, size, step, p, arc.Start, arc.Owner.ID, key, arc.Owner.Addr, want)
					}
					hits++
					switch {
					case arc.Start == arc.Owner.ID:
						wholeHits++
					case arc.Start > arc.Owner.ID:
						wrapHits++
					}
				}
			}
		}

		check("set-up")
		for step := 0; step < 14; step++ {
			var err error
			var what string
			live := liveIndex(s)
			switch op := rng.Intn(7); {
			case op <= 1:
				p := storage[rng.Intn(len(storage))]
				var triples []rdf.Triple
				for j := 0; j < 1+rng.Intn(4); j++ {
					tr := rdf.Triple{S: ex(fmt.Sprintf("p%d", rng.Intn(9))), P: fp([]string{"knows", "name", "mbox", "likes"}[rng.Intn(4)]), O: ex(fmt.Sprintf("o%d", rng.Intn(9)))}
					triples = append(triples, tr)
					k := TripleKeys(tr, bits)
					keys = append(keys, k[:]...)
				}
				what = "publish at " + string(p)
				if op == 0 {
					now, err = s.Publish(p, triples, now)
				} else {
					node, _ := s.Storage(p)
					now, err = s.Retract(p, node.Graph.Triples()[:min(2, node.Graph.Size())], now)
					what = "retract at " + string(p)
				}
			case op == 2:
				addr := simnet.Addr(fmt.Sprintf("idx-join-%d", joined))
				joined++
				what = "join of " + string(addr)
				_, now, err = s.AddIndexNode(addr, now)
			case op == 3 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				what = "graceful leave of " + string(addr)
				now, err = s.RemoveIndexGraceful(addr, now)
			case op == 4 && len(live) > 1:
				addr := live[rng.Intn(len(live))]
				what = "crash of " + string(addr)
				s.FailNode(addr)
				failed = append(failed, addr)
			case op == 5 && len(failed) > 0:
				addr := failed[0]
				failed = failed[1:]
				what = "recovery of " + string(addr)
				s.RecoverNode(addr)
			default:
				what = "stabilize round"
				now = s.StabilizeRound(now)
			}
			// A failed edit or membership event is compensated; the arcs
			// must agree with the ring either way.
			if err != nil {
				t.Logf("bits %d, %d nodes: %s: %v", bits, size, what, err)
			}
			check(what)
		}
	}
	if hits == 0 || wrapHits == 0 || wholeHits == 0 {
		t.Fatalf("arcs answered %d keys, %d by a wrap-around arc and %d by a whole-circle arc; want each > 0", hits, wrapHits, wholeHits)
	}
	t.Logf("%d arc answers checked, %d wrap-around, %d whole-circle", hits, wrapHits, wholeHits)
}

// liveIndex lists the addresses of the deployment's live index nodes in
// ring order.
func liveIndex(s *System) []simnet.Addr {
	var out []simnet.Addr
	for _, n := range s.IndexNodes() {
		if s.Net().Alive(n.Addr()) {
			out = append(out, n.Addr())
		}
	}
	return out
}
