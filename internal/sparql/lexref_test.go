package sparql

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// refLexer is the lexer as it was before tokens became views of the query
// text: every IRI, variable, word, number, language tag and string is built
// byte by byte in a strings.Builder. It is kept as the reference model the
// slicing lexer must agree with token for token (TestLexerMatchesReference),
// and it keeps the old unicode-escape reading (fmt.Sscanf "%x"), which the
// slicing lexer rejects where it is malformed.
type refLexer struct {
	in   string
	pos  int
	line int
	col  int
}

func newRefLexer(in string) *refLexer { return &refLexer{in: in, line: 1, col: 1} }

func (l *refLexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peekByte() byte {
	if l.pos >= len(l.in) {
		return 0
	}
	return l.in[l.pos]
}

func (l *refLexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.in) {
		return 0
	}
	return l.in[l.pos+off]
}

func (l *refLexer) advance() byte {
	c := l.in[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) skipSpaceAndComments() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		if c == '#' {
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.advance()
			}
			continue
		}
		break
	}
}

// next returns the next token.
func (l *refLexer) next() (token, error) {
	l.skipSpaceAndComments()
	startLine, startCol := l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: startLine, col: startCol}
	}
	if l.pos >= len(l.in) {
		return mk(tokEOF, ""), nil
	}
	c := l.peekByte()
	switch c {
	case '{':
		l.advance()
		return mk(tokLBrace, "{"), nil
	case '}':
		l.advance()
		return mk(tokRBrace, "}"), nil
	case '(':
		l.advance()
		return mk(tokLParen, "("), nil
	case ')':
		l.advance()
		return mk(tokRParen, ")"), nil
	case ';':
		l.advance()
		return mk(tokSemi, ";"), nil
	case ',':
		l.advance()
		return mk(tokComma, ","), nil
	case '*':
		l.advance()
		return mk(tokStar, "*"), nil
	case '/':
		l.advance()
		return mk(tokSlash, "/"), nil
	case '+':
		l.advance()
		return mk(tokPlus, "+"), nil
	case '-':
		l.advance()
		return mk(tokMinus, "-"), nil
	case '=':
		l.advance()
		return mk(tokEq, "="), nil
	case '!':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokNeq, "!="), nil
		}
		return mk(tokBang, "!"), nil
	case '&':
		l.advance()
		if l.peekByte() != '&' {
			return token{}, l.errf("expected '&&'")
		}
		l.advance()
		return mk(tokAndAnd, "&&"), nil
	case '|':
		l.advance()
		if l.peekByte() != '|' {
			return token{}, l.errf("expected '||'")
		}
		l.advance()
		return mk(tokOrOr, "||"), nil
	case '^':
		l.advance()
		if l.peekByte() != '^' {
			return token{}, l.errf("expected '^^'")
		}
		l.advance()
		return mk(tokHatHat, "^^"), nil
	case '<':
		// '<' begins an IRI ref if followed by IRI characters and a closing
		// '>' on the same token, otherwise it is the less-than operator.
		if l.looksLikeIRIRef() {
			return l.lexIRIRef(mk)
		}
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokLe, "<="), nil
		}
		return mk(tokLt, "<"), nil
	case '>':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokGe, ">="), nil
		}
		return mk(tokGt, ">"), nil
	case '?', '$':
		return l.lexVar(mk)
	case '"', '\'':
		return l.lexString(mk)
	case '@':
		return l.lexLangTag(mk)
	case '.':
		// distinguish '.' terminator from a decimal number like ".5"
		if d := l.peekByteAt(1); d >= '0' && d <= '9' {
			return l.lexNumber(mk)
		}
		l.advance()
		return mk(tokDot, "."), nil
	}
	if c >= '0' && c <= '9' {
		return l.lexNumber(mk)
	}
	// Decode a full rune: a raw byte like 0xe6 casts to a letter rune but is
	// not valid UTF-8 on its own, and must not reach lexWord, which would
	// consume nothing and loop the parser forever.
	r, _ := utf8.DecodeRuneInString(l.in[l.pos:])
	if isPNCharsBase(r) || c == ':' || c == '_' {
		return l.lexWord(mk)
	}
	return token{}, l.errf("unexpected character %q", c)
}

// looksLikeIRIRef scans ahead for '>' before whitespace, to disambiguate
// IRI references from the '<' comparison operator.
func (l *refLexer) looksLikeIRIRef() bool {
	for i := l.pos + 1; i < len(l.in); i++ {
		switch l.in[i] {
		case '>':
			return true
		case ' ', '\t', '\n', '\r', '<', '"':
			return false
		}
	}
	return false
}

func (l *refLexer) lexIRIRef(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '<'
	var sb strings.Builder
	for l.pos < len(l.in) {
		c := l.advance()
		if c == '>' {
			return mk(tokIRIRef, sb.String()), nil
		}
		sb.WriteByte(c)
	}
	return token{}, l.errf("unterminated IRI reference")
}

func (l *refLexer) lexVar(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '?' or '$'
	var sb strings.Builder
	for l.pos < len(l.in) {
		r, sz := utf8.DecodeRuneInString(l.in[l.pos:])
		if !isVarNameChar(r) {
			break
		}
		sb.WriteRune(r)
		for i := 0; i < sz; i++ {
			l.advance()
		}
	}
	if sb.Len() == 0 {
		return token{}, l.errf("empty variable name")
	}
	return mk(tokVar, sb.String()), nil
}

func (l *refLexer) lexString(mk func(tokenKind, string) token) (token, error) {
	quote := l.advance()
	var sb strings.Builder
	for l.pos < len(l.in) {
		c := l.advance()
		if c == quote {
			return mk(tokString, sb.String()), nil
		}
		if c == '\n' {
			return token{}, l.errf("newline in string literal")
		}
		if c == '\\' {
			if l.pos >= len(l.in) {
				break
			}
			switch e := l.advance(); e {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			case 'u', 'U':
				width := 4
				if e == 'U' {
					width = 8
				}
				if l.pos+width > len(l.in) {
					return token{}, l.errf("truncated unicode escape")
				}
				var r rune
				if _, err := fmt.Sscanf(l.in[l.pos:l.pos+width], "%x", &r); err != nil {
					return token{}, l.errf("invalid unicode escape")
				}
				for i := 0; i < width; i++ {
					l.advance()
				}
				sb.WriteRune(r)
			default:
				return token{}, l.errf("unknown escape \\%c", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	return token{}, l.errf("unterminated string literal")
}

func (l *refLexer) lexLangTag(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '@'
	var sb strings.Builder
	for l.pos < len(l.in) {
		c := l.peekByte()
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
			sb.WriteByte(c)
			l.advance()
			continue
		}
		break
	}
	if sb.Len() == 0 {
		return token{}, l.errf("empty language tag")
	}
	return mk(tokLangTag, sb.String()), nil
}

func (l *refLexer) lexNumber(mk func(tokenKind, string) token) (token, error) {
	var sb strings.Builder
	seenDot, seenExp := false, false
	for l.pos < len(l.in) {
		c := l.peekByte()
		switch {
		case c >= '0' && c <= '9':
			sb.WriteByte(c)
			l.advance()
		case c == '.' && !seenDot && !seenExp:
			// only part of the number if followed by a digit
			if d := l.peekByteAt(1); d < '0' || d > '9' {
				goto done
			}
			seenDot = true
			sb.WriteByte(c)
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			sb.WriteByte(c)
			l.advance()
			if s := l.peekByte(); s == '+' || s == '-' {
				sb.WriteByte(s)
				l.advance()
			}
		default:
			goto done
		}
	}
done:
	if sb.Len() == 0 {
		return token{}, l.errf("malformed number")
	}
	return mk(tokNumber, sb.String()), nil
}

// lexWord scans a bare identifier (keyword or boolean) or a prefixed name.
func (l *refLexer) lexWord(mk func(tokenKind, string) token) (token, error) {
	var sb strings.Builder
	hasColon := false
	for l.pos < len(l.in) {
		r, sz := utf8.DecodeRuneInString(l.in[l.pos:])
		if r == ':' {
			hasColon = true
			sb.WriteRune(r)
			for i := 0; i < sz; i++ {
				l.advance()
			}
			continue
		}
		if !isPNChar(r) {
			break
		}
		sb.WriteRune(r)
		for i := 0; i < sz; i++ {
			l.advance()
		}
	}
	if sb.Len() == 0 {
		// Never emit an empty token: consuming no input here would make the
		// parser spin on the same position.
		return token{}, l.errf("unexpected character %q", l.in[l.pos])
	}
	if hasColon {
		return mk(tokPName, sb.String()), nil
	}
	return mk(tokIdent, sb.String()), nil
}

// refTokenize is tokenize over the reference lexer.
func refTokenize(in string) ([]token, error) {
	lx := newRefLexer(in)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// malformedEscapes are the inputs where the lexers part ways on purpose:
// the reference reads a \u or \U escape with fmt.Sscanf("%x"), which stops
// at the first non-hex digit and maps a surrogate or a code point above
// U+10FFFF to U+FFFD, while tokenize reports each as a SyntaxError.
var malformedEscapes = map[string]string{
	`"a\u12zzb"`:   "a\u0012b",
	`"\uD800"`:     "\uFFFD",
	`"\U00110000"`: "\uFFFD",
}

// checkLexerAgainstReference fails t unless tokenize and the reference
// lexer agree on in: the same tokens (kind, text, line, col), or the same
// SyntaxError. The one licensed difference is a malformed unicode escape,
// which tokenize rejects and the reference reads.
func checkLexerAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, gotErr := tokenize(in)
	want, wantErr := refTokenize(in)
	if se, ok := gotErr.(*SyntaxError); ok && se.Msg == "invalid unicode escape" {
		if hex := escapeDigitsAt(in, se.Line, se.Col); wellFormedEscape(hex) {
			t.Fatalf("tokenize rejects the well-formed escape %q in %q", hex, in)
		}
		return
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("input %q: error %v, reference %v", in, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("input %q: %d tokens, reference %d", in, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("input %q: token %d is %+v, reference %+v", in, i, got[i], want[i])
		}
	}
}

// escapeDigitsAt returns the hex digits of the unicode escape whose digits
// start at the 1-based line and byte column, as a SyntaxError reports it.
func escapeDigitsAt(in string, line, col int) string {
	off := 0
	for ; line > 1; line-- {
		off += strings.IndexByte(in[off:], '\n') + 1
	}
	off += col - 1
	width := 4
	if in[off-1] == 'U' {
		width = 8
	}
	return in[off:min(off+width, len(in))]
}

// wellFormedEscape reports whether hex is a full \u or \U digit sequence
// naming a Unicode scalar value.
func wellFormedEscape(hex string) bool {
	if len(hex) != 4 && len(hex) != 8 {
		return false
	}
	var v uint64
	for _, c := range []byte(hex) {
		d := strings.IndexByte("0123456789abcdef", c|0x20)
		if d < 0 {
			return false
		}
		v = v*16 + uint64(d)
	}
	return v < 0xD800 || (v > 0xDFFF && v <= 0x10FFFF)
}

// fuzzCorpus returns FuzzParseQuery's seeds and the regression inputs
// saved under testdata/fuzz.
func fuzzCorpus(t *testing.T) []string {
	corpus := append([]string(nil), parseSeeds()...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseQuery", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1, then one string("...") line
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, s)
	}
	return corpus
}

// lexerFragments are the pieces randomLexInput strings together: every
// token class, comments, CRLF, multi-byte and invalid UTF-8, escapes, and
// the half-tokens an edit leaves behind.
var lexerFragments = []string{
	"SELECT", "where", "a", "true", "FILTER", "foaf:name", "foaf:", ":local", "_:b1",
	"ns:me.", "?x", "$y", "?", "?名前", "?é_1", "<http://example.org/p>", "<", "<=",
	">", ">=", "<a b>", `"plain"`, `'single'`, `"esc\n\t\"q\""`, `"\u00e9"`,
	`"\U0001F600"`, `"\\"`, `"unterminated`, `"\q"`, "@en", "@en-GB", "@", "^^",
	"^", "1", "42", "1.5", ".5", "2e3", "1.5E-3", "3.", "e", ".", ";", ",", "{",
	"}", "(", ")", "*", "/", "+", "-", "=", "!=", "!", "&&", "&", "||", "|",
	"# comment\n", "#", "\r\n", "\n", "\t", " ", "  ", "ä", "日本", "\xe6", "\xff",
	"\x00", "~", "\\",
}

// randomLexInput strings fragments together, with a random raw byte now
// and then, separated by nothing or by whitespace.
func randomLexInput(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(16); n >= 0; n-- {
		if rng.Intn(8) == 0 {
			sb.WriteByte(byte(rng.Intn(256)))
		} else {
			sb.WriteString(lexerFragments[rng.Intn(len(lexerFragments))])
		}
		if rng.Intn(2) == 0 {
			sb.WriteByte(" \n\t"[rng.Intn(3)])
		}
	}
	return sb.String()
}

// TestLexerMatchesReference checks the slicing lexer against the
// strings.Builder one it replaced, token for token: on the fuzz corpus, on
// inputs with comments, multi-byte names, escapes and CRLF line ends, and
// on random inputs. The malformed unicode escapes, the one intended
// difference, are asserted on their own.
func TestLexerMatchesReference(t *testing.T) {
	inputs := fuzzCorpus(t)
	inputs = append(inputs,
		"# comment only",
		"SELECT ?x # trailing\r\nWHERE {\r\n  ?x <http://p> ?y . # inner\r\n}",
		"PREFIX ü: <http://ü/>\nSELECT ?名前 WHERE { ?名前 ü:näme \"日本\"@ja . }",
		`ASK { <s> <p> "a\tb\n\"c\"\\d\u00e9\U0001F600 tail" , 'x\'y' . }`,
		"SELECT ?x WHERE { ?x <p> 1.5e-3 , .5 , 7 , 2E+4 . } LIMIT 10 OFFSET 2",
		"SELECT ?x WHERE { ?x <p> ?y FILTER(?y <= 3 && ?y >= 1 || !bound(?x) && ?y != -2) }",
		"SELECT ?x WHERE { ?x ?p \"x\n\" }",
		"SELECT ?x WHERE { ?x ?p \"\\",
		"SELECT ?x WHERE { ?x ?p \"\\u12\" }",
		"SELECT ?\xe6 WHERE { ?x ?p ?o }",
	)
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, randomLexInput(rng))
	}
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		checkLexerAgainstReference(t, in)
	}

	for src, old := range malformedEscapes {
		in := `ASK { ?s ?p ` + src + ` }`
		want, err := refTokenize(in)
		if err != nil || want[4].text != old {
			t.Errorf("reference on %s: %v, %q; want the lenient reading %q", src, err, want[4].text, old)
		}
		if _, err := tokenize(in); err == nil || err.(*SyntaxError).Msg != "invalid unicode escape" {
			t.Errorf("tokenize on %s: error %v, want invalid unicode escape", src, err)
		}
	}
}
