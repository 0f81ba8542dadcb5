package eval

import (
	"cmp"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
)

// refTerm is rdf.Term as it was laid out before a literal's language tag
// and datatype shared one field: four fields, 56 bytes. Its methods are the
// definitions the compact term replaced, kept as the reference model.
type refTerm struct {
	Kind     rdf.Kind
	Value    string
	Lang     string
	Datatype string
}

var refEscapes = strings.NewReplacer(`"`, `\"`, `\`, `\\`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

func (t refTerm) String() string {
	switch t.Kind {
	case rdf.KindIRI:
		return "<" + t.Value + ">"
	case rdf.KindLiteral:
		s := `"` + refEscapes.Replace(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		} else if t.Datatype != "" {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindVar:
		return "?" + t.Value
	}
	return "<invalid>"
}

func (t refTerm) SizeBytes() int { return 2 + len(t.Value) + len(t.Lang) + len(t.Datatype) }

// refNumeric dispatches on the datatype as NumericValue did; the lexical
// parse it leaves to a plain literal, which the layout does not touch.
func refNumeric(t refTerm) (float64, bool) {
	if t.Kind != rdf.KindLiteral {
		return 0, false
	}
	switch t.Datatype {
	case "", rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		return rdf.NumericValue(rdf.NewLiteral(t.Value))
	}
	return 0, false
}

func refCompare(a, b refTerm) int {
	rank := map[rdf.Kind]int{rdf.KindInvalid: -1, rdf.KindVar: 0, rdf.KindBlank: 1, rdf.KindIRI: 2, rdf.KindLiteral: 3}
	if c := cmp.Compare(rank[a.Kind], rank[b.Kind]); c != 0 {
		return c
	}
	if a.Kind == rdf.KindLiteral && b.Kind == rdf.KindLiteral {
		na, oka := refNumeric(a)
		nb, okb := refNumeric(b)
		if oka && okb && na != nb {
			return cmp.Compare(na, nb)
		}
	}
	return cmp.Or(strings.Compare(a.Value, b.Value), strings.Compare(a.Lang, b.Lang), strings.Compare(a.Datatype, b.Datatype))
}

func refHashTerm(h uint64, t refTerm) uint64 {
	return hashString(hashString(hashString(mix(h, uint64(t.Kind)), t.Value), t.Lang), t.Datatype)
}

// refTermPairs builds IRIs, blank nodes, variables, and plain, tagged and
// typed literals from the same inputs twice: as the reference, and through
// the constructors. Values include the strings used as tags and datatypes,
// tags include the empty one, and one datatype is spelled like a tag.
func refTermPairs() (refs []refTerm, terms []rdf.Term) {
	values := []string{"", "a", "5", "-2.5e3", ".5", "12abc", "x\"y\\z\n\t\r", "é", "en", rdf.XSDInteger}
	langs := []string{"", "en", "fr", "en-US"}
	types := []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDString, rdf.XSDBoolean, "en", "http://e/dt"}
	add := func(r refTerm, t rdf.Term) {
		refs = append(refs, r)
		terms = append(terms, t)
	}
	for _, v := range values {
		add(refTerm{Kind: rdf.KindIRI, Value: v}, rdf.NewIRI(v))
		add(refTerm{Kind: rdf.KindBlank, Value: v}, rdf.NewBlank(v))
		add(refTerm{Kind: rdf.KindVar, Value: v}, rdf.NewVar(v))
		add(refTerm{Kind: rdf.KindLiteral, Value: v}, rdf.NewLiteral(v))
		for _, lang := range langs {
			add(refTerm{Kind: rdf.KindLiteral, Value: v, Lang: lang}, rdf.NewLangLiteral(v, lang))
		}
		for _, dt := range types {
			add(refTerm{Kind: rdf.KindLiteral, Value: v, Datatype: dt}, rdf.NewTypedLiteral(v, dt))
		}
	}
	add(refTerm{Kind: rdf.KindLiteral, Value: "-7", Datatype: rdf.XSDInteger}, rdf.NewInteger(-7))
	add(refTerm{Kind: rdf.KindLiteral, Value: "false", Datatype: rdf.XSDBoolean}, rdf.NewBoolean(false))
	add(refTerm{}, rdf.Term{})
	return refs, terms
}

// TestTermAgreesWithFourFieldReference: the 40-byte term answers every
// question the four-field one answered the same way — ==, String, AppendTo,
// SizeBytes, Compare, NumericValue and the row hash — so no charged byte,
// row order or hash chain can tell the layouts apart.
func TestTermAgreesWithFourFieldReference(t *testing.T) {
	refs, terms := refTermPairs()
	for i, ref := range refs {
		term := terms[i]
		if got, want := term.String(), ref.String(); got != want {
			t.Fatalf("%#v: String = %s, want %s", term, got, want)
		}
		if got := string(term.AppendTo([]byte("> "))); got != "> "+ref.String() {
			t.Fatalf("%#v: AppendTo = %q, want %q", term, got, "> "+ref.String())
		}
		if got, want := term.SizeBytes(), ref.SizeBytes(); got != want {
			t.Fatalf("%s: SizeBytes = %d, want %d", ref, got, want)
		}
		gn, gok := rdf.NumericValue(term)
		wn, wok := refNumeric(ref)
		if gn != wn || gok != wok {
			t.Fatalf("%s: NumericValue = %v, %v, want %v, %v", ref, gn, gok, wn, wok)
		}
		if got, want := hashTerm(hashInit, term), refHashTerm(hashInit, ref); got != want {
			t.Fatalf("%s: hashTerm = %#x, want %#x", ref, got, want)
		}
		for j, other := range refs {
			if got, want := term == terms[j], ref == other; got != want {
				t.Fatalf("%s == %s is %v, want %v", ref, other, got, want)
			}
			if got, want := rdf.Compare(term, terms[j]), refCompare(ref, other); got != want {
				t.Fatalf("Compare(%s, %s) = %d, want %d", ref, other, got, want)
			}
		}
	}
}
