package sparql

import (
	"slices"
	"testing"
)

// parseSeeds is FuzzParseQuery's seed corpus: every query form and
// pattern shape, escapes and a negative number.
func parseSeeds() []string {
	return slices.Concat(roundTripQueries, []string{
		`SELECT * WHERE { ?s ?p ?o . }`,
		`BASE <http://b/> ASK { <s> <p> "x\n\"y\""@en . }`,
		`SELECT ?x WHERE { ?x <p> 3.14 . FILTER(!bound(?x) || ?x < -2) }`,
	})
}

// FuzzParseQuery checks the parser never panics, that the lexer agrees
// with its reference model (checkLexerAgainstReference), and that the
// canonical serialization is a fixed point: any query the parser accepts
// must re-render to text the parser accepts again, and the second
// rendering must be byte-identical to the first. This is the property the
// engine relies on when shipping sub-queries between nodes as plain text.
func FuzzParseQuery(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexerAgainstReference(t, src)
		q1, err := Parse(src)
		if err != nil {
			return
		}
		text := q1.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ninput: %q\ncanonical:\n%s", err, src, text)
		}
		if again := q2.String(); again != text {
			t.Fatalf("canonical form is not a fixed point\ninput: %q\nfirst:\n%s\nsecond:\n%s", src, text, again)
		}
	})
}
