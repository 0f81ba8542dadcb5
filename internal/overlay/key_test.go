package overlay

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
)

// keyTerms covers every term kind and every literal shape the N-Triples
// form escapes or passes through, plus one pair long enough to outgrow
// hashKey's stack buffer.
var keyTerms = []rdf.Term{
	rdf.NewIRI("http://example.org/alice"),
	rdf.NewIRI(""),
	rdf.NewBlank("b0"),
	rdf.NewLiteral("plain"),
	rdf.NewLiteral(""),
	rdf.NewLangLiteral("chat", "fr"),
	rdf.NewTypedLiteral("42", rdf.XSDInteger),
	rdf.NewLiteral(`say "hi"`),
	rdf.NewLiteral(`back\slash`),
	rdf.NewLiteral("line\nbreak\ttab\rreturn"),
	rdf.NewLiteral("naïve — 日本語"),
	rdf.NewLangLiteral("quoted \"日本\"\n", "ja"),
	rdf.NewLiteral("bad utf8 \xff then \"quote\""),
	rdf.NewLiteral("bad utf8 \xff alone"),
	rdf.NewIRI("http://example.org/" + strings.Repeat("long/", 60)),
	rdf.NewVar("x"),
	{},
}

// TestHashKeyBytesDidNotMove pins every index key to the formula the keys
// were first published under — SHA-1 over kind, NUL, a.String() and, for
// the pair kinds, NUL, b.String(), the first eight bytes big-endian,
// truncated to the ring width — so assembling the input in a buffer moves
// no posting, and pins Term.AppendTo to Term.String for every kind.
func TestHashKeyBytesDidNotMove(t *testing.T) {
	for _, a := range keyTerms {
		if got := string(a.AppendTo(nil)); got != a.String() {
			t.Errorf("AppendTo(nil) = %q, String() = %q", got, a.String())
		}
		if got := string(a.AppendTo([]byte("x\x00"))); got != "x\x00"+a.String() {
			t.Errorf("AppendTo after a prefix = %q, want the prefix and %q", got, a.String())
		}
		for _, b := range keyTerms {
			for kind := KeyS; kind < numKeyKinds; kind++ {
				s := kind.String() + "\x00" + a.String()
				if kind >= KeySP {
					s += "\x00" + b.String()
				}
				sum := sha1.Sum([]byte(s))
				for _, bits := range []uint{16, 24, 64} {
					want := chord.ID(binary.BigEndian.Uint64(sum[:8]))
					if bits < 64 {
						want &= 1<<bits - 1
					}
					if got := hashKey(kind, a, b, bits); got != want {
						t.Fatalf("hashKey(%v, %v, %v, %d) = %v, want %v", kind, a, b, bits, got, want)
					}
				}
			}
		}
	}
}

// TestTripleKeysDoNotAllocate keeps the six hash inputs of an ordinary
// triple on the stack.
func TestTripleKeysDoNotAllocate(t *testing.T) {
	tr := rdf.Triple{S: keyTerms[0], P: rdf.NewIRI("http://xmlns.com/foaf/0.1/name"), O: keyTerms[11]}
	if n := testing.AllocsPerRun(100, func() { TripleKeys(tr, 24) }); n != 0 {
		t.Errorf("TripleKeys allocates %.0f times per triple, want 0", n)
	}
}

// TestKeyMemoMatchesTripleKeys holds the per-edit memo to TripleKeys over
// every triple of keyTerms, each seen twice so half the reads hit.
func TestKeyMemoMatchesTripleKeys(t *testing.T) {
	memo := keyMemo{24, map[unaryTerm]chord.ID{}}
	for pass := 0; pass < 2; pass++ {
		for _, s := range keyTerms {
			for _, p := range keyTerms {
				for _, o := range keyTerms {
					tr := rdf.Triple{S: s, P: p, O: o}
					if got, want := memo.tripleKeys(tr), TripleKeys(tr, 24); got != want {
						t.Fatalf("memo keys of %v = %v, TripleKeys %v", tr, got, want)
					}
				}
			}
		}
	}
}

// TestKeyMemoPoolConcurrent: memos taken from the pool by concurrent
// edits, each over triples of its own, read the keys TripleKeys derives and
// come cleared, however often a released map is taken again. The race step
// runs it.
func TestKeyMemoPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for edit := 0; edit < 50; edit++ {
				memo := newKeyMemo(24)
				if len(memo.unary) != 0 {
					t.Errorf("a memo taken from the pool holds %d keys", len(memo.unary))
				}
				for i := 0; i < 10; i++ {
					tr := rdf.Triple{S: keyTerms[(g+i)%len(keyTerms)], P: keyTerms[edit%len(keyTerms)], O: keyTerms[i]}
					if got, want := memo.tripleKeys(tr), TripleKeys(tr, 24); got != want {
						t.Errorf("memo keys of %v = %v, TripleKeys %v", tr, got, want)
					}
				}
				memo.release()
			}
		}(g)
	}
	wg.Wait()
}

// TestSumKeyFreqsMatchesMap holds the sort-and-count of an edit's keys to
// a map[chord.ID]int model on seeded random edits: a few keys repeated
// often, under a publication's delta (+1), a retraction's (−1) and
// Republish's absolute counts (1 with the absolute flag). The result is
// the model's sums in ascending key order, one entry per distinct key.
func TestSumKeyFreqsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		ids := make([]chord.ID, rng.Intn(40))
		delta := []int{1, -1}[trial%2]
		model := map[chord.ID]int{}
		for i := range ids {
			ids[i] = chord.ID(rng.Intn(12))
			model[ids[i]] += delta
		}
		in := slices.Clone(ids)
		got := sumKeyFreqs(ids, delta)
		want := make([]KeyFreq, 0, len(model))
		for key, freq := range model {
			want = append(want, KeyFreq{Key: key, Freq: freq})
		}
		slices.SortFunc(want, func(a, b KeyFreq) int { return cmp.Compare(a.Key, b.Key) })
		if !slices.Equal(got, want) {
			t.Fatalf("sumKeyFreqs(%v, %d) = %v, want %v", in, delta, got, want)
		}
	}
	// Republish counts every key of a graph once per triple naming it,
	// and installs the counts as absolute frequencies.
	s, now := newTestSystem(t, 3)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = s.Publish("D1", aliceTriples(), now); err != nil {
		t.Fatal(err)
	}
	model := map[chord.ID]int{}
	node, _ := s.Storage("D1")
	for _, tr := range node.Graph.Triples() {
		for _, key := range TripleKeys(tr, s.cfg.Bits) {
			model[key]++
		}
	}
	for key := range model {
		for _, n := range s.IndexNodes() {
			n.Table.Set(key, "D1", 0)
		}
	}
	if now, err = s.Republish("D1", now); err != nil {
		t.Fatal(err)
	}
	repeated := false
	for key, freq := range model {
		repeated = repeated || freq > 1
		addr, _, _, err := s.ResolveKey("D1", key, now)
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := s.Index(addr)
		if got, _ := postingDigest(owner.Table, key, "D1"); got != freq {
			t.Errorf("after Republish key %v reads frequency %d at its owner, want %d", key, got, freq)
		}
	}
	if !repeated {
		t.Error("no key of the graph is named by two triples: nothing was summed")
	}
}
