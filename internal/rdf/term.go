// Package rdf implements the RDF data model used throughout adhocshare:
// terms (IRIs, literals, blank nodes and query variables), triples, triple
// patterns, an indexed in-memory graph store and N-Triples serialization.
//
// Terms are small comparable value types so they can be used directly as map
// keys, which the graph indexes and the solution-mapping machinery rely on.
package rdf

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind discriminates the lexical space a Term belongs to.
type Kind uint8

const (
	// KindInvalid is the zero Kind; a zero Term is not a valid RDF term.
	KindInvalid Kind = iota
	// KindIRI is an IRI reference (RFC 3987).
	KindIRI
	// KindLiteral is an RDF literal, optionally carrying a language tag or
	// a datatype IRI.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
	// KindVar is a SPARQL query variable. Variables never occur in stored
	// data; they appear only in triple patterns.
	KindVar
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindVar:
		return "var"
	default:
		return "invalid"
	}
}

// Well-known datatype IRIs from XML Schema used by the expression evaluator.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
)

// RDFType is the rdf:type predicate IRI, the expansion of the SPARQL
// keyword "a".
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Term is one RDF term or query variable. It is a comparable value type:
// two Terms are the same term exactly when they are == to each other.
//
// The interpretation of the fields depends on Kind:
//
//	KindIRI:     Value is the IRI string.
//	KindLiteral: Value is the lexical form. A literal carries a language
//	             tag or a datatype IRI, never both, so one Suffix holds
//	             either: the tag when Tagged is set, the datatype otherwise
//	             ("" means a plain/xsd:string literal). Read them through
//	             Lang and Datatype.
//	KindBlank:   Value is the blank-node label (without the "_:" prefix).
//	KindVar:     Value is the variable name (without the "?" sigil).
//
// A Term is 40 bytes on 64-bit platforms — the kind and the flag share a
// word, then two string headers — and solution rows are slices of them, so
// its size is the width of every cell the engine copies. The fields stay
// exported because encoding/gob drops unexported ones.
type Term struct {
	Kind   Kind
	Tagged bool
	Value  string
	Suffix string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewLangLiteral returns a language-tagged literal term; an empty tag gives
// the plain literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Tagged: lang != "", Value: lex, Suffix: lang}
}

// NewTypedLiteral returns a literal term with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Suffix: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Suffix: XSDInteger}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	if v {
		return Term{Kind: KindLiteral, Value: "true", Suffix: XSDBoolean}
	}
	return Term{Kind: KindLiteral, Value: "false", Suffix: XSDBoolean}
}

// Lang returns a literal's language tag, "" when it has none.
func (t Term) Lang() string {
	if t.Tagged {
		return t.Suffix
	}
	return ""
}

// Datatype returns a literal's datatype IRI, "" for a plain or
// language-tagged literal.
func (t Term) Datatype() string {
	if t.Tagged {
		return ""
	}
	return t.Suffix
}

// NewBlank returns a blank-node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewVar returns a query-variable term. The name must not include the
// leading "?" or "$" sigil.
func NewVar(name string) Term { return Term{Kind: KindVar, Value: name} }

// IsVar reports whether the term is a query variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsConcrete reports whether the term may occur in stored data, i.e. it is
// an IRI, literal or blank node.
func (t Term) IsConcrete() bool {
	return t.Kind == KindIRI || t.Kind == KindLiteral || t.Kind == KindBlank
}

// IsZero reports whether the term is the zero value.
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// Equal reports whether two terms are identical (same kind and all lexical
// components equal). It is equivalent to ==, provided for readability.
func (t Term) Equal(u Term) bool { return t == u }

// String renders the term in N-Triples-compatible syntax. Variables render
// with a leading "?".
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindLiteral:
		var sb strings.Builder
		sb.WriteByte('"')
		sb.WriteString(escapeLiteral(t.Value))
		sb.WriteByte('"')
		if t.Tagged {
			sb.WriteByte('@')
			sb.WriteString(t.Suffix)
		} else if t.Suffix != "" {
			sb.WriteString("^^<")
			sb.WriteString(t.Suffix)
			sb.WriteByte('>')
		}
		return sb.String()
	case KindBlank:
		return "_:" + t.Value
	case KindVar:
		return "?" + t.Value
	default:
		return "<invalid>"
	}
}

// AppendTo appends the bytes of String to buf and returns the extended
// slice, allocating only when buf has to grow — for callers that hash or
// frame many terms and can do without the intermediate strings.
func (t Term) AppendTo(buf []byte) []byte {
	switch t.Kind {
	case KindIRI:
		return append(append(append(buf, '<'), t.Value...), '>')
	case KindLiteral:
		buf = append(appendEscaped(append(buf, '"'), t.Value), '"')
		if t.Tagged {
			buf = append(append(buf, '@'), t.Suffix...)
		} else if t.Suffix != "" {
			buf = append(append(append(buf, "^^<"...), t.Suffix...), '>')
		}
		return buf
	case KindBlank:
		return append(append(buf, "_:"...), t.Value...)
	case KindVar:
		return append(append(buf, '?'), t.Value...)
	default:
		return append(buf, "<invalid>"...)
	}
}

// SizeBytes estimates the wire size of the term for the network cost model:
// the lexical components plus the kind tag.
func (t Term) SizeBytes() int {
	return kindWidth(t.Kind, t.Tagged) + len(t.Value) + len(t.Suffix)
}

// kindWidth is the fixed wire width of a term's kind tag, which carries the
// tagged flag with it.
func kindWidth(Kind, bool) int { return 2 }

// escapedChars are the characters an N-Triples literal writes as escapes.
const escapedChars = "\"\\\n\r\t"

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, escapedChars) {
		return s
	}
	return string(appendEscaped(nil, s))
}

// appendEscaped appends the literal lexical form s with N-Triples escapes.
func appendEscaped(buf []byte, s string) []byte {
	if !strings.ContainsAny(s, escapedChars) {
		return append(buf, s...)
	}
	for _, r := range s {
		switch r {
		case '"':
			buf = append(buf, `\"`...)
		case '\\':
			buf = append(buf, `\\`...)
		case '\n':
			buf = append(buf, `\n`...)
		case '\r':
			buf = append(buf, `\r`...)
		case '\t':
			buf = append(buf, `\t`...)
		default:
			buf = utf8.AppendRune(buf, r)
		}
	}
	return buf
}

// Compare imposes a total order over terms, used by ORDER BY and by
// deterministic test output. The order follows the SPARQL recommendation's
// ordering sketch: blank nodes < IRIs < literals, with variables ordered
// first (variables only occur in patterns). Within literals, an attempt is
// made to compare numerically when both sides are numeric.
func Compare(a, b Term) int {
	ra, rb := orderRank(a), orderRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if a.Kind == KindLiteral && b.Kind == KindLiteral {
		na, oka := NumericValue(a)
		nb, okb := NumericValue(b)
		if oka && okb {
			switch {
			case na < nb:
				return -1
			case na > nb:
				return 1
			}
			// fall through to lexical tie-break for stability
		}
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Lang(), b.Lang()); c != 0 {
		return c
	}
	return strings.Compare(a.Datatype(), b.Datatype())
}

func orderRank(t Term) int {
	switch t.Kind {
	case KindVar:
		return 0
	case KindBlank:
		return 1
	case KindIRI:
		return 2
	case KindLiteral:
		return 3
	default:
		return -1
	}
}

// NumericValue extracts a float64 from a numeric literal. It accepts
// xsd:integer, xsd:decimal, xsd:double and untyped literals whose lexical
// form parses as a number.
func NumericValue(t Term) (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	switch t.Datatype() {
	case "", XSDInteger, XSDDecimal, XSDDouble:
		return parseFloat(t.Value)
	default:
		return 0, false
	}
}

// parseFloat parses an xsd numeric lexical form, rejecting empty and
// non-numeric strings (and the "Inf", "0x1p3" or "1_000" forms
// strconv.ParseFloat would take) before parsing.
func parseFloat(s string) (float64, bool) {
	if !isNumericLexical(s) {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

func isNumericLexical(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits, dot, exp := 0, false, false
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digits++
		case c == '.' && !dot && !exp:
			dot = true
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			if i+1 < len(s) && (s[i+1] == '+' || s[i+1] == '-') {
				i++
			}
		default:
			return false
		}
	}
	return digits > 0
}
