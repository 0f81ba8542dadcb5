// Package sparql implements a self-contained SPARQL 1.0 front end: a
// lexer, an abstract syntax tree and a recursive-descent parser covering
// the query forms, graph patterns and solution-sequence modifiers used by
// the paper (SELECT/ASK/CONSTRUCT/DESCRIBE, basic graph patterns, UNION,
// OPTIONAL, FILTER with built-in calls, PREFIX/BASE, FROM/FROM NAMED,
// ORDER BY, DISTINCT/REDUCED, LIMIT/OFFSET).
package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIdent             // bare word: keyword, boolean literal or "a"
	tokIRIRef            // <...>
	tokPName             // prefix:local, prefix:, or :local
	tokVar               // ?name or $name
	tokString            // quoted string with escapes resolved
	tokNumber            // integer/decimal/double lexical form
	tokLangTag           // @tag
	tokLBrace            // {
	tokRBrace            // }
	tokLParen            // (
	tokRParen            // )
	tokDot               // .
	tokSemi              // ;
	tokComma             // ,
	tokEq                // =
	tokNeq               // !=
	tokLt                // <
	tokGt                // >
	tokLe                // <=
	tokGe                // >=
	tokAndAnd            // &&
	tokOrOr              // ||
	tokBang              // !
	tokPlus              // +
	tokMinus             // -
	tokStar              // *
	tokSlash             // /
	tokHatHat            // ^^
)

var tokenNames = [...]string{
	tokEOF: "end of input", tokIdent: "identifier", tokIRIRef: "IRI",
	tokPName: "prefixed name", tokVar: "variable", tokString: "string",
	tokNumber: "number", tokLangTag: "language tag", tokLBrace: "'{'",
	tokRBrace: "'}'", tokLParen: "'('", tokRParen: "')'", tokDot: "'.'",
	tokSemi: "';'", tokComma: "','", tokEq: "'='", tokNeq: "'!='",
	tokLt: "'<'", tokGt: "'>'", tokLe: "'<='", tokGe: "'>='",
	tokAndAnd: "'&&'", tokOrOr: "'||'", tokBang: "'!'", tokPlus: "'+'",
	tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'", tokHatHat: "'^^'",
}

func (k tokenKind) String() string {
	if k >= 0 && int(k) < len(tokenNames) {
		return tokenNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string // semantic text (escapes resolved for strings)
	line int
	col  int
}

// lexer turns a query string into tokens. It is position-aware for error
// reporting and understands SPARQL comments (# to end of line).
type lexer struct {
	in   string
	pos  int
	line int
	col  int
}

func newLexer(in string) *lexer { return &lexer{in: in, line: 1, col: 1} }

// SyntaxError is returned for lexical and grammatical errors, carrying the
// 1-based source position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.in) {
		return 0
	}
	return l.in[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.in) {
		return 0
	}
	return l.in[l.pos+off]
}

func (l *lexer) advance() byte {
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

func (l *lexer) skipSpaceAndComments() {
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

// punct maps each punctuation byte to the token it lexes as on its own;
// '&', '|' and '^' occur only doubled, and orEq is the token a byte lexes
// as when '=' follows it.
var (
	punct = [256]tokenKind{
		'{': tokLBrace, '}': tokRBrace, '(': tokLParen, ')': tokRParen,
		';': tokSemi, ',': tokComma, '.': tokDot, '*': tokStar, '/': tokSlash,
		'+': tokPlus, '-': tokMinus, '=': tokEq, '!': tokBang, '<': tokLt,
		'>': tokGt, '&': tokAndAnd, '|': tokOrOr, '^': tokHatHat,
	}
	orEq = [256]tokenKind{'!': tokNeq, '<': tokLe, '>': tokGe}
)

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start, startLine, startCol := l.pos, l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: startLine, col: startCol}
	}
	if l.pos >= len(l.in) {
		return mk(tokEOF, ""), nil
	}
	c := l.peekByte()
	switch {
	case c == '<' && l.looksLikeIRIRef():
		// '<' begins an IRI ref if followed by IRI characters and a closing
		// '>' on the same token, otherwise it is the less-than operator.
		return l.lexIRIRef(mk)
	case c >= '0' && c <= '9', c == '.' && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9':
		// a '.' before a digit begins a decimal like ".5", not a terminator
		return l.lexNumber(mk)
	case c == '&' || c == '|' || c == '^':
		l.advance()
		if l.peekByte() != c {
			return token{}, l.errf("expected '%c%c'", c, c)
		}
		l.advance()
		return mk(punct[c], l.in[start:l.pos]), nil
	case punct[c] != 0:
		k := punct[c]
		l.advance()
		if orEq[c] != 0 && l.peekByte() == '=' {
			k = orEq[c]
			l.advance()
		}
		return mk(k, l.in[start:l.pos]), nil
	case c == '?' || c == '$':
		return l.lexVar(mk)
	case c == '"' || c == '\'':
		return l.lexString(mk)
	case c == '@':
		return l.lexLangTag(mk)
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
func (l *lexer) looksLikeIRIRef() bool {
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

// The lex* scanners return their text as a slice of the query string: a
// token, and every AST and plan string taken from it, is a view of the
// query text, never a copy. Only a string literal with an escape builds
// its text.

func (l *lexer) lexIRIRef(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '<'
	start := l.pos
	for l.pos < len(l.in) {
		if l.advance() == '>' {
			return mk(tokIRIRef, l.in[start:l.pos-1]), nil
		}
	}
	return token{}, l.errf("unterminated IRI reference")
}

// skip advances over the next n bytes.
func (l *lexer) skip(n int) {
	for ; n > 0; n-- {
		l.advance()
	}
}

func (l *lexer) lexVar(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '?' or '$'
	start := l.pos
	for l.pos < len(l.in) {
		r, sz := utf8.DecodeRuneInString(l.in[l.pos:])
		if !isVarNameChar(r) {
			break
		}
		l.skip(sz)
	}
	if l.pos == start {
		return token{}, l.errf("empty variable name")
	}
	return mk(tokVar, l.in[start:l.pos]), nil
}

func (l *lexer) lexString(mk func(tokenKind, string) token) (token, error) {
	quote := l.advance()
	start := l.pos
	var sb strings.Builder // the resolved text, once an escape is seen
	run := start           // start of the text not yet copied into sb
	for l.pos < len(l.in) {
		c := l.advance()
		if c == quote {
			if run == start {
				return mk(tokString, l.in[start:l.pos-1]), nil
			}
			sb.WriteString(l.in[run : l.pos-1])
			return mk(tokString, sb.String()), nil
		}
		if c == '\n' {
			return token{}, l.errf("newline in string literal")
		}
		if c != '\\' {
			continue
		}
		sb.WriteString(l.in[run : l.pos-1])
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
			// Exactly width hex digits naming a Unicode scalar value: no
			// sign, no short form, no surrogate, nothing above U+10FFFF.
			v, err := strconv.ParseUint(l.in[l.pos:l.pos+width], 16, 32)
			if err != nil || !utf8.ValidRune(rune(v)) {
				return token{}, l.errf("invalid unicode escape")
			}
			l.skip(width)
			sb.WriteRune(rune(v))
		default:
			return token{}, l.errf("unknown escape \\%c", e)
		}
		run = l.pos
	}
	return token{}, l.errf("unterminated string literal")
}

func (l *lexer) lexLangTag(mk func(tokenKind, string) token) (token, error) {
	l.advance() // '@'
	start := l.pos
	for l.pos < len(l.in) {
		c := l.peekByte()
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
			l.advance()
			continue
		}
		break
	}
	if l.pos == start {
		return token{}, l.errf("empty language tag")
	}
	return mk(tokLangTag, l.in[start:l.pos]), nil
}

func (l *lexer) lexNumber(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.in) {
		c := l.peekByte()
		switch {
		case c >= '0' && c <= '9':
			l.advance()
		case c == '.' && !seenDot && !seenExp:
			// only part of the number if followed by a digit
			if d := l.peekByteAt(1); d < '0' || d > '9' {
				goto done
			}
			seenDot = true
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			l.advance()
			if s := l.peekByte(); s == '+' || s == '-' {
				l.advance()
			}
		default:
			goto done
		}
	}
done:
	if l.pos == start {
		return token{}, l.errf("malformed number")
	}
	return mk(tokNumber, l.in[start:l.pos]), nil
}

// lexWord scans a bare identifier (keyword or boolean) or a prefixed name.
func (l *lexer) lexWord(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	hasColon := false
	for l.pos < len(l.in) {
		r, sz := utf8.DecodeRuneInString(l.in[l.pos:])
		if r == ':' {
			hasColon = true
		} else if !isPNChar(r) {
			break
		}
		l.skip(sz)
	}
	if l.pos == start {
		// Never emit an empty token: consuming no input here would make the
		// parser spin on the same position.
		return token{}, l.errf("unexpected character %q", l.in[l.pos])
	}
	if hasColon {
		return mk(tokPName, l.in[start:l.pos]), nil
	}
	return mk(tokIdent, l.in[start:l.pos]), nil
}

func isPNCharsBase(r rune) bool {
	return unicode.IsLetter(r)
}

func isPNChar(r rune) bool {
	// '.' is deliberately excluded so that the triple terminator directly
	// after a prefixed name (e.g. "ns:me.") lexes as two tokens.
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func isVarNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
