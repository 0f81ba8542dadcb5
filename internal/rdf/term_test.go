package rdf

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		term Term
		kind Kind
		str  string
	}{
		{NewIRI("http://example.org/a"), KindIRI, "<http://example.org/a>"},
		{NewLiteral("hello"), KindLiteral, `"hello"`},
		{NewLangLiteral("bonjour", "fr"), KindLiteral, `"bonjour"@fr`},
		{NewTypedLiteral("5", XSDInteger), KindLiteral, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBlank("b1"), KindBlank, "_:b1"},
		{NewVar("x"), KindVar, "?x"},
		{NewInteger(-7), KindLiteral, `"-7"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBoolean(true), KindLiteral, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
	}
	for _, c := range cases {
		if c.term.Kind != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.term, c.term.Kind, c.kind)
		}
		if got := c.term.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestTermPredicates(t *testing.T) {
	if !NewVar("x").IsVar() {
		t.Error("NewVar should be a var")
	}
	if NewIRI("a").IsVar() {
		t.Error("IRI should not be a var")
	}
	if !NewIRI("a").IsConcrete() || !NewLiteral("l").IsConcrete() || !NewBlank("b").IsConcrete() {
		t.Error("IRI/literal/blank should be concrete")
	}
	if NewVar("x").IsConcrete() {
		t.Error("var should not be concrete")
	}
	var zero Term
	if !zero.IsZero() {
		t.Error("zero term should report IsZero")
	}
	if NewIRI("a").IsZero() {
		t.Error("IRI should not be zero")
	}
}

// TestTermLayout: a term is a 40-byte cell — its kind and tagged flag in one
// word, then two strings — and one Suffix field reads as a language tag or
// a datatype, never both. The old four-field layout, held as a reference
// model, is TestTermAgreesWithFourFieldReference in internal/sparql/eval,
// where the row hash can be reached too.
func TestTermLayout(t *testing.T) {
	if got := unsafe.Sizeof(Term{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Term{}) = %d, want 40", got)
	}
	if NewLangLiteral("x", "") != NewLiteral("x") || NewLangLiteral("x", "").String() != `"x"` {
		t.Errorf("a literal with an empty tag is %#v, want the plain literal %#v", NewLangLiteral("x", ""), NewLiteral("x"))
	}
	tag, typed := NewLangLiteral("x", "en"), NewTypedLiteral("x", "en")
	if tag == typed {
		t.Error("a tag and a datatype with the same string must be different terms")
	}
	if tag.Lang() != "en" || tag.Datatype() != "" || typed.Lang() != "" || typed.Datatype() != "en" {
		t.Errorf("tag reads (%q, %q), datatype reads (%q, %q); want (en, \"\") and (\"\", en)",
			tag.Lang(), tag.Datatype(), typed.Lang(), typed.Datatype())
	}
	if tag.String() != `"x"@en` || typed.String() != `"x"^^<en>` || tag.SizeBytes() != typed.SizeBytes() {
		t.Errorf("tag %s (%d bytes), datatype %s (%d bytes)", tag, tag.SizeBytes(), typed, typed.SizeBytes())
	}
}

func TestTermEquality(t *testing.T) {
	a1 := NewIRI("http://x")
	a2 := NewIRI("http://x")
	if a1 != a2 || !a1.Equal(a2) {
		t.Error("identical IRIs must compare equal")
	}
	if NewLiteral("x") == NewLangLiteral("x", "en") {
		t.Error("plain and lang literal must differ")
	}
	if NewLiteral("5") == NewTypedLiteral("5", XSDInteger) {
		t.Error("plain and typed literal must differ")
	}
	if NewIRI("x") == NewBlank("x") {
		t.Error("IRI and blank with same value must differ")
	}
}

func TestLiteralEscaping(t *testing.T) {
	l := NewLiteral("a\"b\\c\nd\te\rf")
	want := `"a\"b\\c\nd\te\rf"`
	if got := l.String(); got != want {
		t.Errorf("escaped literal = %q, want %q", got, want)
	}
}

func TestCompareOrdering(t *testing.T) {
	// blank < IRI < literal
	b, i, l := NewBlank("z"), NewIRI("a"), NewLiteral("a")
	if Compare(b, i) >= 0 || Compare(i, l) >= 0 || Compare(b, l) >= 0 {
		t.Error("rank order blank < IRI < literal violated")
	}
	// numeric comparison across integer lexical forms
	if Compare(NewInteger(9), NewInteger(10)) >= 0 {
		t.Error("numeric compare: 9 should sort before 10")
	}
	if Compare(NewTypedLiteral("2.5", XSDDecimal), NewInteger(3)) >= 0 {
		t.Error("numeric compare across datatypes failed")
	}
	// lexical fallback
	if Compare(NewLiteral("apple"), NewLiteral("banana")) >= 0 {
		t.Error("lexical compare failed")
	}
	if Compare(NewLiteral("x"), NewLiteral("x")) != 0 {
		t.Error("equal literals must compare 0")
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(av, bv string, ak, bk uint8) bool {
		a := Term{Kind: Kind(ak%4) + 1, Value: av}
		b := Term{Kind: Kind(bk%4) + 1, Value: bv}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericValue(t *testing.T) {
	cases := []struct {
		term Term
		want float64
		ok   bool
	}{
		{NewInteger(42), 42, true},
		{NewTypedLiteral("-3.5", XSDDecimal), -3.5, true},
		{NewTypedLiteral("1e3", XSDDouble), 1000, true},
		{NewLiteral("17"), 17, true},
		{NewLiteral("abc"), 0, false},
		{NewLiteral("12abc"), 0, false},
		{NewLiteral(""), 0, false},
		{NewIRI("http://x"), 0, false},
	}
	for _, c := range cases {
		got, ok := NumericValue(c.term)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NumericValue(%v) = %v,%v want %v,%v", c.term, got, ok, c.want, c.ok)
		}
	}
}

func TestBoundMask(t *testing.T) {
	s, p, o := NewIRI("s"), NewIRI("p"), NewLiteral("o")
	v := NewVar("x")
	cases := []struct {
		tr   Triple
		mask BoundMask
		name string
	}{
		{Triple{s, p, o}, BoundS | BoundP | BoundO, "spo"},
		{Triple{s, p, v}, BoundS | BoundP, "sp"},
		{Triple{v, p, o}, BoundP | BoundO, "po"},
		{Triple{s, v, o}, BoundS | BoundO, "so"},
		{Triple{s, v, v}, BoundS, "s"},
		{Triple{v, p, v}, BoundP, "p"},
		{Triple{v, v, o}, BoundO, "o"},
		{Triple{v, v, v}, 0, "none"},
	}
	for _, c := range cases {
		if got := c.tr.Mask(); got != c.mask {
			t.Errorf("Mask(%v) = %v, want %v", c.tr, got, c.mask)
		}
		if got := c.tr.Mask().String(); got != c.name {
			t.Errorf("Mask.String = %q, want %q", got, c.name)
		}
	}
}

func TestTripleVars(t *testing.T) {
	tr := Triple{NewVar("x"), NewIRI("p"), NewVar("x")}
	vars := tr.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars() = %v, want [x]", vars)
	}
	tr2 := Triple{NewVar("a"), NewVar("b"), NewVar("c")}
	if got := tr2.Vars(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Vars() = %v, want [a b c]", got)
	}
}

// TestTripleAppendVars: AppendVars appends what Vars returns, and into a
// caller's array of three it allocates nothing.
func TestTripleAppendVars(t *testing.T) {
	for _, tr := range []Triple{
		{NewVar("x"), NewIRI("p"), NewVar("x")},
		{NewVar("a"), NewVar("b"), NewVar("c")},
		{NewIRI("s"), NewVar("b"), NewVar("b")},
		{NewIRI("s"), NewIRI("p"), NewLiteral("o")},
	} {
		var buf [3]string
		if got, want := tr.AppendVars(buf[:0]), tr.Vars(); !slices.Equal(got, want) {
			t.Errorf("%v: AppendVars = %v, Vars = %v", tr, got, want)
		}
		if got := tr.AppendVars([]string{"z"}); !slices.Equal(got[1:], tr.Vars()) || got[0] != "z" {
			t.Errorf("%v: AppendVars after z = %v", tr, got)
		}
		if n := testing.AllocsPerRun(20, func() {
			var buf [3]string
			_ = tr.AppendVars(buf[:0])
		}); n != 0 {
			t.Errorf("%v: AppendVars into an array allocates %.0f times, want 0", tr, n)
		}
	}
}

func TestTriplePredicates(t *testing.T) {
	conc := Triple{NewIRI("s"), NewIRI("p"), NewLiteral("o")}
	if !conc.IsConcrete() {
		t.Error("concrete triple misclassified")
	}
	pat := Triple{NewVar("s"), NewIRI("p"), NewLiteral("o")}
	if pat.IsConcrete() {
		t.Error("pattern misclassified")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	f := func(v string) bool {
		return NewIRI(v).SizeBytes() > 0 && NewLiteral(v).SizeBytes() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
