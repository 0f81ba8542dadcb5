package rdf

import (
	"bytes"
	"strings"
	"testing"
)

// ntSerializable reports whether every term in ts survives the N-Triples
// writer's framing. The writer escapes quotes, backslashes and \n \r \t in
// literal lexical forms, but IRIs, blank-node labels and language tags are
// written verbatim, so terms Turtle can express beyond the N-Triples
// grammar (an IRI containing '>', a label with punctuation) are excluded
// from the round-trip property rather than counted as writer bugs.
func ntSerializable(ts []Triple) bool {
	iriOK := func(v string) bool { return !strings.ContainsAny(v, ">\n\r") }
	labelOK := func(v string) bool {
		for _, r := range v {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_') {
				return false
			}
		}
		return v != ""
	}
	for _, tr := range ts {
		for _, term := range []Term{tr.S, tr.P, tr.O} {
			switch term.Kind {
			case KindIRI:
				if !iriOK(term.Value) {
					return false
				}
			case KindBlank:
				if !labelOK(term.Value) {
					return false
				}
			case KindLiteral:
				if !iriOK(term.Datatype()) || !labelOK(term.Lang()) && term.Lang() != "" {
					return false
				}
			}
		}
	}
	return true
}

// FuzzReadTurtle checks the Turtle reader never panics, and that every
// document it accepts re-serializes cleanly: the parsed triples write out
// as N-Triples, parse back with the same count, and re-serialize to
// byte-identical text.
func FuzzReadTurtle(f *testing.F) {
	f.Add("<http://e/s> <http://e/p> <http://e/o> .")
	f.Add(`@prefix f: <http://f/> . f:a f:b f:c , "lit"@en ; f:d 4.5 .`)
	f.Add(`@base <http://b/> . <s> a <o> . <s2> <p> true .`)
	f.Add(`PREFIX f: <http://f/>
f:s f:p [ f:q "x\n\"y\"" ; f:r -7 ] .`)
	f.Add(`# comment
<http://e/s> <http://e/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .`)
	f.Add(`_:b1 <http://e/p> _:b2 .`)
	f.Fuzz(func(t *testing.T, src string) {
		ts, err := ParseTurtleString(src)
		if err != nil || !ntSerializable(ts) {
			return
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			t.Fatalf("write: %v\ninput: %q", err, src)
		}
		first := buf.String()
		back, err := ParseNTriples(strings.NewReader(first))
		if err != nil {
			t.Fatalf("serialized triples do not reparse: %v\ninput: %q\nserialized:\n%s", err, src, first)
		}
		if len(back) != len(ts) {
			t.Fatalf("triple count changed across serialization: %d -> %d\ninput: %q", len(ts), len(back), src)
		}
		buf.Reset()
		if err := WriteNTriples(&buf, back); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if buf.String() != first {
			t.Fatalf("serialization is not a fixed point\nfirst:\n%s\nsecond:\n%s", first, buf.String())
		}
	})
}

// FuzzGraphOps reads the input as an edit sequence — one byte per op, the
// high bit choosing removal, the rest a triple over modelPool — and holds
// the graph to the map reference of TestGraphAgainstReferenceModel after
// every op, then drains it and requires an empty dictionary.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 0x81, 0x82})
	f.Add([]byte{5, 5, 0x85, 0x85, 5, 30, 31, 0x9e, 124, 0xfc})
	f.Add([]byte("every kind shares one Value"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		g, ref := NewGraph(), map[Triple]bool{}
		for _, op := range ops {
			modelStep(t, g, ref, modelTriple(int(op&0x7f)), op&0x80 != 0)
			checkModel(t, g, ref)
		}
		for tr := range ref {
			modelStep(t, g, ref, tr, true)
		}
		if free := freeIDs(g); len(g.ids) != 0 || len(free) != len(g.terms) {
			t.Fatalf("drained graph interns %d terms, %d of %d IDs free", len(g.ids), len(free), len(g.terms))
		}
	})
}
