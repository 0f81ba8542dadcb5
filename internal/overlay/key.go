// Package overlay implements the paper's hybrid P2P architecture
// (Sect. III): index nodes self-organized into a Chord ring and storage
// nodes that keep their own RDF data locally and attach to one index node.
//
// The two-level distributed index works exactly as Sect. III-B describes:
// for every shared triple (s,p,o), six keys are derived — ⟨s⟩, ⟨p⟩, ⟨o⟩,
// ⟨s,p⟩, ⟨p,o⟩, ⟨s,o⟩ — and for each key a posting (storage-node address
// plus a frequency count) is installed in the location table of the key's
// successor index node. A query with a triple pattern picks the key
// matching its bound positions, routes to the responsible index node via
// Chord (level one) and reads the location-table row (level two) to find
// the storage nodes that can answer.
package overlay

import (
	"sync"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
)

// KeyKind names one of the six index-key derivations of Sect. III-B.
type KeyKind uint8

// The six key kinds.
const (
	KeyS KeyKind = iota
	KeyP
	KeyO
	KeySP
	KeyPO
	KeySO
	numKeyKinds
)

// String returns the attribute combination, e.g. "sp".
func (k KeyKind) String() string {
	switch k {
	case KeyS:
		return "s"
	case KeyP:
		return "p"
	case KeyO:
		return "o"
	case KeySP:
		return "sp"
	case KeyPO:
		return "po"
	case KeySO:
		return "so"
	default:
		return "?"
	}
}

// hashKey gives each key kind its own hash domain so ⟨s⟩ and ⟨o⟩ of the
// same term do not collide: the hashed bytes are the kind's name, NUL, a's
// N-Triples form and, for the pair kinds, NUL and b's. They are assembled
// in a stack buffer (six keys per published triple made the concatenated
// strings the publish path's largest allocation site); terms too long for
// it spill to the heap.
func hashKey(kind KeyKind, a, b rdf.Term, bits uint) chord.ID {
	var stack [192]byte
	buf := a.AppendTo(append(append(stack[:0], kind.String()...), 0))
	if kind >= KeySP {
		buf = b.AppendTo(append(buf, 0))
	}
	return chord.HashBytes(buf, bits)
}

// TripleKeys returns the six index keys of a concrete triple, indexed by
// KeyKind.
func TripleKeys(t rdf.Triple, bits uint) [numKeyKinds]chord.ID {
	return [numKeyKinds]chord.ID{
		KeyS:  hashKey(KeyS, t.S, rdf.Term{}, bits),
		KeyP:  hashKey(KeyP, t.P, rdf.Term{}, bits),
		KeyO:  hashKey(KeyO, t.O, rdf.Term{}, bits),
		KeySP: hashKey(KeySP, t.S, t.P, bits),
		KeyPO: hashKey(KeyPO, t.P, t.O, bits),
		KeySO: hashKey(KeySO, t.S, t.O, bits),
	}
}

// keyMemo holds the ⟨s⟩, ⟨p⟩ and ⟨o⟩ keys of one edit's terms: a batch
// repeats its predicates and subjects, so each is hashed once per edit.
type keyMemo struct {
	bits  uint
	unary map[unaryTerm]chord.ID
}

// unaryMaps holds the maps of finished edits' memos, cleared. A cleared
// map keeps the room it grew, so an edit reuses it in place of growing a
// new map term by term; concurrent edits each take their own. A map past
// maxPooledTerms — a bulk publication's — is left to the collector: every
// later edit would pay its size to clear it.
var unaryMaps = sync.Pool{New: func() any { return map[unaryTerm]chord.ID{} }}

const maxPooledTerms = 1 << 10

// newKeyMemo takes a memo for one edit; release returns it.
func newKeyMemo(bits uint) keyMemo {
	return keyMemo{bits, unaryMaps.Get().(map[unaryTerm]chord.ID)}
}

func (m keyMemo) release() {
	if len(m.unary) <= maxPooledTerms {
		clear(m.unary)
		unaryMaps.Put(m.unary)
	}
}

type unaryTerm struct {
	kind KeyKind
	term rdf.Term
}

// tripleKeys is TripleKeys(t, m.bits), its unary keys read through m.
func (m keyMemo) tripleKeys(t rdf.Triple) [numKeyKinds]chord.ID {
	keys := [numKeyKinds]chord.ID{KeySP: hashKey(KeySP, t.S, t.P, m.bits),
		KeyPO: hashKey(KeyPO, t.P, t.O, m.bits), KeySO: hashKey(KeySO, t.S, t.O, m.bits)}
	for kind, term := range [...]rdf.Term{KeyS: t.S, KeyP: t.P, KeyO: t.O} {
		u := unaryTerm{KeyKind(kind), term}
		id, ok := m.unary[u]
		if !ok {
			id = hashKey(u.kind, term, rdf.Term{}, m.bits)
			m.unary[u] = id
		}
		keys[kind] = id
	}
	return keys
}

// PatternKey selects the most specific index key usable for a triple
// pattern, following the paper's lookup rule (hash the bound attribute or
// attribute pair). For a fully bound pattern the ⟨s,p⟩ key is used (any
// pair would do; the storage node verifies the object). The boolean result
// is false for the all-variable pattern, which has no key and must be
// resolved by flooding all storage nodes (the unstructured lower layer).
func PatternKey(pat rdf.Triple, bits uint) (chord.ID, KeyKind, bool) {
	switch pat.Mask() {
	case rdf.BoundS | rdf.BoundP | rdf.BoundO:
		return hashKey(KeySP, pat.S, pat.P, bits), KeySP, true
	case rdf.BoundS | rdf.BoundP:
		return hashKey(KeySP, pat.S, pat.P, bits), KeySP, true
	case rdf.BoundP | rdf.BoundO:
		return hashKey(KeyPO, pat.P, pat.O, bits), KeyPO, true
	case rdf.BoundS | rdf.BoundO:
		return hashKey(KeySO, pat.S, pat.O, bits), KeySO, true
	case rdf.BoundS:
		return hashKey(KeyS, pat.S, rdf.Term{}, bits), KeyS, true
	case rdf.BoundP:
		return hashKey(KeyP, pat.P, rdf.Term{}, bits), KeyP, true
	case rdf.BoundO:
		return hashKey(KeyO, pat.O, rdf.Term{}, bits), KeyO, true
	default:
		return 0, 0, false
	}
}
