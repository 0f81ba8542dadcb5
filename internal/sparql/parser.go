package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"adhocshare/internal/rdf"
)

// Parse parses a complete SPARQL query string into its AST.
func Parse(query string) (*Query, error) {
	toks, err := tokenize(query)
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks}
	return p.parseQuery()
}

// parser is a single-pass recursive-descent parser with one token of
// lookahead over the token stream produced by the lexer.
type parser struct {
	toks []token
	pos  int
	q    *Query
}

// tokenize lexes the whole query before any of it is parsed, so a lexical
// error is reported ahead of a grammatical one.
func tokenize(in string) ([]token, error) {
	lx := newLexer(in)
	toks := make([]token, 0, len(in)/tokenBytes+4)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
	}
	return toks, nil
}

// tokenBytes is the query text per token tokenize sizes its token slice
// for. Typical queries spend more: IRIs are long and tokens are spaced.
const tokenBytes = 6

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// keyword reports whether the current token is the given keyword
// (case-insensitive bare identifier).
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, found %s %q", kw, p.cur().kind, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, found %s %q", k, p.cur().kind, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) parseQuery() (*Query, error) {
	p.q = &Query{
		Prefixes: map[string]string{},
		Limit:    -1,
		Offset:   -1,
	}
	if err := p.parsePrologue(); err != nil {
		return nil, err
	}
	switch {
	case p.keyword("SELECT"):
		if err := p.parseSelect(); err != nil {
			return nil, err
		}
	case p.keyword("ASK"):
		if err := p.parseAsk(); err != nil {
			return nil, err
		}
	case p.keyword("CONSTRUCT"):
		if err := p.parseConstruct(); err != nil {
			return nil, err
		}
	case p.keyword("DESCRIBE"):
		if err := p.parseDescribe(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, found %q", p.cur().text)
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	if err := validate(p.q); err != nil {
		return nil, err
	}
	return p.q, nil
}

func (p *parser) parsePrologue() error {
	for {
		switch {
		case p.keyword("BASE"):
			p.advance()
			t, err := p.expect(tokIRIRef)
			if err != nil {
				return err
			}
			p.q.Base = t.text
		case p.keyword("PREFIX"):
			p.advance()
			name, err := p.expect(tokPName)
			if err != nil {
				return err
			}
			if !strings.HasSuffix(name.text, ":") {
				return p.errf("prefix declaration must end with ':'")
			}
			iri, err := p.expect(tokIRIRef)
			if err != nil {
				return err
			}
			p.q.Prefixes[strings.TrimSuffix(name.text, ":")] = iri.text
		default:
			return nil
		}
	}
}

func (p *parser) parseSelect() error {
	p.q.Form = FormSelect
	p.advance() // SELECT
	if p.keyword("DISTINCT") {
		p.q.Distinct = true
		p.advance()
	} else if p.keyword("REDUCED") {
		p.q.Reduced = true
		p.advance()
	}
	if p.cur().kind == tokStar {
		p.q.Star = true
		p.advance()
	} else {
		for p.cur().kind == tokVar {
			p.q.SelectVars = append(p.q.SelectVars, p.advance().text)
		}
		if len(p.q.SelectVars) == 0 {
			return p.errf("SELECT requires '*' or at least one variable")
		}
	}
	if err := p.parseDatasetClauses(); err != nil {
		return err
	}
	if err := p.parseWhere(); err != nil {
		return err
	}
	return p.parseSolutionModifier()
}

func (p *parser) parseAsk() error {
	p.q.Form = FormAsk
	p.advance() // ASK
	if err := p.parseDatasetClauses(); err != nil {
		return err
	}
	return p.parseWhere()
}

func (p *parser) parseConstruct() error {
	p.q.Form = FormConstruct
	p.advance() // CONSTRUCT
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	tmpl, err := p.parseTriplesBlock()
	if err != nil {
		return err
	}
	p.q.Template = tmpl
	if _, err := p.expect(tokRBrace); err != nil {
		return err
	}
	if err := p.parseDatasetClauses(); err != nil {
		return err
	}
	if err := p.parseWhere(); err != nil {
		return err
	}
	return p.parseSolutionModifier()
}

func (p *parser) parseDescribe() error {
	p.q.Form = FormDescribe
	p.advance() // DESCRIBE
	if p.cur().kind == tokStar {
		p.q.Star = true
		p.advance()
	} else {
		for {
			switch p.cur().kind {
			case tokVar:
				p.q.DescribeTerms = append(p.q.DescribeTerms, rdf.NewVar(p.advance().text))
				continue
			case tokIRIRef, tokPName:
				t, err := p.parseIRITerm()
				if err != nil {
					return err
				}
				p.q.DescribeTerms = append(p.q.DescribeTerms, t)
				continue
			}
			break
		}
		if len(p.q.DescribeTerms) == 0 {
			return p.errf("DESCRIBE requires '*' or at least one resource")
		}
	}
	if err := p.parseDatasetClauses(); err != nil {
		return err
	}
	// WHERE clause is optional for DESCRIBE.
	if p.keyword("WHERE") || p.cur().kind == tokLBrace {
		if err := p.parseWhere(); err != nil {
			return err
		}
	}
	return p.parseSolutionModifier()
}

func (p *parser) parseDatasetClauses() error {
	for p.keyword("FROM") {
		p.advance()
		named := false
		if p.keyword("NAMED") {
			named = true
			p.advance()
		}
		t, err := p.parseIRITerm()
		if err != nil {
			return err
		}
		if named {
			p.q.FromNamed = append(p.q.FromNamed, t.Value)
		} else {
			p.q.From = append(p.q.From, t.Value)
		}
	}
	return nil
}

func (p *parser) parseWhere() error {
	if p.keyword("WHERE") {
		p.advance()
	}
	gp, err := p.parseGroupGraphPattern()
	if err != nil {
		return err
	}
	p.q.Where = gp
	return nil
}

// parseGroupGraphPattern parses '{' ... '}'.
func (p *parser) parseGroupGraphPattern() (GraphPattern, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	group := &Group{}
	for {
		switch {
		case p.cur().kind == tokRBrace:
			p.advance()
			return normalizeGroup(group), nil
		case p.keyword("OPTIONAL"):
			p.advance()
			inner, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &Optional{Pattern: inner})
			p.eatOptionalDot()
		case p.keyword("GRAPH"):
			p.advance()
			var name rdf.Term
			if p.cur().kind == tokVar {
				name = rdf.NewVar(p.advance().text)
			} else {
				var err error
				name, err = p.parseIRITerm()
				if err != nil {
					return nil, err
				}
			}
			inner, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &GraphPat{Name: name, Pattern: inner})
			p.eatOptionalDot()
		case p.keyword("FILTER"):
			p.advance()
			expr, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &Filter{Expr: expr})
			p.eatOptionalDot()
		case p.cur().kind == tokLBrace:
			sub, err := p.parseGroupOrUnion()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, sub)
			p.eatOptionalDot()
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated group graph pattern")
		default:
			bgp, err := p.parseTriplesBlock()
			if err != nil {
				return nil, err
			}
			if len(bgp) == 0 {
				return nil, p.errf("expected graph pattern, found %q", p.cur().text)
			}
			// Adjacent triples blocks in one group form a single BGP; merging
			// them also makes the canonical serialization a fixed point.
			if n := len(group.Elems); n > 0 {
				if last, ok := group.Elems[n-1].(*BGP); ok {
					last.Patterns = append(last.Patterns, bgp...)
					continue
				}
			}
			group.Elems = append(group.Elems, &BGP{Patterns: bgp})
		}
	}
}

func (p *parser) eatOptionalDot() {
	if p.cur().kind == tokDot {
		p.advance()
	}
}

// parseGroupOrUnion parses Group ('UNION' Group)*.
func (p *parser) parseGroupOrUnion() (GraphPattern, error) {
	left, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	for p.keyword("UNION") {
		p.advance()
		right, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		left = &Union{Left: left, Right: right}
	}
	return left, nil
}

// normalizeGroup unwraps single-element groups without filters so the AST
// stays small; a group of one BGP is just the BGP.
func normalizeGroup(g *Group) GraphPattern {
	if len(g.Elems) == 1 {
		switch g.Elems[0].(type) {
		case *BGP, *Union, *Group, *GraphPat:
			return g.Elems[0]
		}
	}
	return g
}

// parseTriplesBlock parses a sequence of triples-same-subject clauses,
// supporting the ';' predicate-list and ',' object-list abbreviations used
// by the paper's Fig. 9 query.
func (p *parser) parseTriplesBlock() ([]rdf.Triple, error) {
	var out []rdf.Triple
	for {
		if !p.startsTerm() {
			return out, nil
		}
		subj, err := p.parseVarOrTerm()
		if err != nil {
			return nil, err
		}
		for {
			pred, err := p.parseVerb()
			if err != nil {
				return nil, err
			}
			for {
				obj, err := p.parseVarOrTerm()
				if err != nil {
					return nil, err
				}
				out = append(out, rdf.Triple{S: subj, P: pred, O: obj})
				if p.cur().kind == tokComma {
					p.advance()
					continue
				}
				break
			}
			if p.cur().kind == tokSemi {
				p.advance()
				// allow trailing ';' before '.' or '}'
				if p.startsVerb() {
					continue
				}
			}
			break
		}
		if p.cur().kind == tokDot {
			p.advance()
			continue
		}
		return out, nil
	}
}

func (p *parser) startsTerm() bool {
	switch p.cur().kind {
	case tokVar, tokIRIRef, tokPName, tokString, tokNumber:
		return true
	case tokIdent:
		t := p.cur().text
		return strings.EqualFold(t, "true") || strings.EqualFold(t, "false")
	case tokLt:
		return false
	default:
		return false
	}
}

func (p *parser) startsVerb() bool {
	switch p.cur().kind {
	case tokVar, tokIRIRef, tokPName:
		return true
	case tokIdent:
		return strings.EqualFold(p.cur().text, "a")
	default:
		return false
	}
}

// parseVerb parses a predicate: variable, IRI or the keyword 'a'.
func (p *parser) parseVerb() (rdf.Term, error) {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "a") {
		p.advance()
		return rdf.NewIRI(rdf.RDFType), nil
	}
	if p.cur().kind == tokVar {
		return rdf.NewVar(p.advance().text), nil
	}
	return p.parseIRITerm()
}

// parseVarOrTerm parses a subject/object: variable, IRI, literal or blank.
func (p *parser) parseVarOrTerm() (rdf.Term, error) {
	switch t := p.cur(); t.kind {
	case tokVar:
		p.advance()
		return rdf.NewVar(t.text), nil
	case tokIRIRef, tokPName:
		return p.parseIRITerm()
	case tokString:
		return p.parseLiteralTerm()
	case tokNumber:
		p.advance()
		return numberTerm(t.text), nil
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "true"):
			p.advance()
			return rdf.NewBoolean(true), nil
		case strings.EqualFold(t.text, "false"):
			p.advance()
			return rdf.NewBoolean(false), nil
		}
	}
	return rdf.Term{}, p.errf("expected term, found %s %q", p.cur().kind, p.cur().text)
}

// parseIRITerm resolves an IRIREF or prefixed name to an IRI term, applying
// BASE and PREFIX declarations. Blank-node syntax _:x is lexed as a PName
// with prefix "_".
func (p *parser) parseIRITerm() (rdf.Term, error) {
	switch t := p.cur(); t.kind {
	case tokIRIRef:
		p.advance()
		return rdf.NewIRI(p.resolveIRI(t.text)), nil
	case tokPName:
		p.advance()
		i := strings.IndexByte(t.text, ':')
		prefix, local := t.text[:i], t.text[i+1:]
		if prefix == "_" {
			return rdf.NewBlank(local), nil
		}
		ns, ok := p.q.Prefixes[prefix]
		if !ok {
			return rdf.Term{}, &SyntaxError{Line: t.line, Col: t.col,
				Msg: fmt.Sprintf("undeclared prefix %q", prefix)}
		}
		return rdf.NewIRI(ns + local), nil
	default:
		return rdf.Term{}, p.errf("expected IRI, found %s %q", t.kind, t.text)
	}
}

func (p *parser) resolveIRI(iri string) string {
	if p.q.Base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") || strings.HasPrefix(iri, "mailto:") {
		return iri
	}
	return p.q.Base + iri
}

func (p *parser) parseLiteralTerm() (rdf.Term, error) {
	t := p.advance() // string token
	switch p.cur().kind {
	case tokLangTag:
		lang := p.advance().text
		return rdf.NewLangLiteral(t.text, lang), nil
	case tokHatHat:
		p.advance()
		dt, err := p.parseIRITerm()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(t.text, dt.Value), nil
	default:
		return rdf.NewLiteral(t.text), nil
	}
}

func numberTerm(lexical string) rdf.Term {
	if strings.ContainsAny(lexical, "eE") {
		return rdf.NewTypedLiteral(lexical, rdf.XSDDouble)
	}
	if strings.ContainsRune(lexical, '.') {
		return rdf.NewTypedLiteral(lexical, rdf.XSDDecimal)
	}
	return rdf.NewTypedLiteral(lexical, rdf.XSDInteger)
}

// parseConstraint parses a FILTER constraint: a bracketted expression or a
// built-in call.
func (p *parser) parseConstraint() (Expression, error) {
	if p.cur().kind == tokLParen {
		p.advance()
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.cur().kind == tokIdent {
		return p.parseBuiltInCall()
	}
	return nil, p.errf("expected '(' or built-in call after FILTER")
}

// builtins maps the supported built-in function names to their arity range.
var builtins = map[string][2]int{
	"BOUND": {1, 1}, "ISIRI": {1, 1}, "ISURI": {1, 1}, "ISBLANK": {1, 1},
	"ISLITERAL": {1, 1}, "STR": {1, 1}, "LANG": {1, 1}, "DATATYPE": {1, 1},
	"REGEX": {2, 3}, "SAMETERM": {2, 2}, "LANGMATCHES": {2, 2},
}

func (p *parser) parseBuiltInCall() (Expression, error) {
	t := p.cur()
	name := strings.ToUpper(t.text)
	arity, ok := builtins[name]
	if !ok {
		return nil, p.errf("unknown built-in function %q", t.text)
	}
	p.advance()
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []Expression
	if p.cur().kind != tokRParen {
		for {
			a, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if len(args) < arity[0] || len(args) > arity[1] {
		return nil, p.errf("%s expects %d..%d arguments, got %d", name, arity[0], arity[1], len(args))
	}
	return &ExprCall{Name: name, Args: args}, nil
}

// Expression precedence climbing: || < && < relational < additive <
// multiplicative < unary < primary.

func (p *parser) parseExpression() (Expression, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOrOr {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ExprOr{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expression, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		p.advance()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &ExprAnd{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseRelational() (Expression, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op CmpOp
	switch p.cur().kind {
	case tokEq:
		op = CmpEq
	case tokNeq:
		op = CmpNeq
	case tokLt:
		op = CmpLt
	case tokGt:
		op = CmpGt
	case tokLe:
		op = CmpLe
	case tokGe:
		op = CmpGe
	default:
		return left, nil
	}
	p.advance()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &ExprCmp{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (Expression, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch p.cur().kind {
		case tokPlus:
			op = ArithAdd
		case tokMinus:
			op = ArithSub
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ExprArith{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expression, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ArithOp
		switch p.cur().kind {
		case tokStar:
			op = ArithMul
		case tokSlash:
			op = ArithDiv
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ExprArith{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expression, error) {
	switch p.cur().kind {
	case tokBang:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ExprNot{X: x}, nil
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ExprNeg{X: x}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary()
	default:
		return p.parsePrimary()
	}
}

func (p *parser) parsePrimary() (Expression, error) {
	switch t := p.cur(); t.kind {
	case tokLParen:
		p.advance()
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokVar:
		p.advance()
		return &ExprVar{Name: t.text}, nil
	case tokString:
		lit, err := p.parseLiteralTerm()
		if err != nil {
			return nil, err
		}
		return &ExprTerm{Term: lit}, nil
	case tokNumber:
		p.advance()
		return &ExprTerm{Term: numberTerm(t.text)}, nil
	case tokIRIRef, tokPName:
		term, err := p.parseIRITerm()
		if err != nil {
			return nil, err
		}
		return &ExprTerm{Term: term}, nil
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "true"):
			p.advance()
			return &ExprTerm{Term: rdf.NewBoolean(true)}, nil
		case strings.EqualFold(t.text, "false"):
			p.advance()
			return &ExprTerm{Term: rdf.NewBoolean(false)}, nil
		default:
			return p.parseBuiltInCall()
		}
	default:
		return nil, p.errf("expected expression, found %s %q", t.kind, t.text)
	}
}

func (p *parser) parseSolutionModifier() error {
	if p.keyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			cond, ok, err := p.parseOrderCondition()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			p.q.OrderBy = append(p.q.OrderBy, cond)
		}
		if len(p.q.OrderBy) == 0 {
			return p.errf("ORDER BY requires at least one condition")
		}
	}
	for {
		switch {
		case p.keyword("LIMIT"):
			v, err := p.parseCount("LIMIT")
			if err != nil {
				return err
			}
			p.q.Limit = v
		case p.keyword("OFFSET"):
			v, err := p.parseCount("OFFSET")
			if err != nil {
				return err
			}
			p.q.Offset = v
		default:
			return nil
		}
	}
}

// parseCount parses the INTEGER after a LIMIT or OFFSET keyword. A number
// token carries no sign, so Atoi accepts exactly the INTEGER form and
// rejects a decimal or double.
func (p *parser) parseCount(clause string) (int, error) {
	p.advance()
	n, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(n.text)
	if err != nil {
		return 0, p.errf("invalid %s %q", clause, n.text)
	}
	return v, nil
}

func (p *parser) parseOrderCondition() (OrderCond, bool, error) {
	switch {
	case p.keyword("ASC"), p.keyword("DESC"):
		desc := strings.EqualFold(p.cur().text, "DESC")
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return OrderCond{}, false, err
		}
		e, err := p.parseExpression()
		if err != nil {
			return OrderCond{}, false, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return OrderCond{}, false, err
		}
		return OrderCond{Expr: e, Desc: desc}, true, nil
	case p.cur().kind == tokVar:
		v := p.advance().text
		return OrderCond{Expr: &ExprVar{Name: v}}, true, nil
	case p.cur().kind == tokLParen:
		p.advance()
		e, err := p.parseExpression()
		if err != nil {
			return OrderCond{}, false, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return OrderCond{}, false, err
		}
		return OrderCond{Expr: e}, true, nil
	case p.cur().kind == tokIdent && isBuiltinName(p.cur().text):
		e, err := p.parseBuiltInCall()
		if err != nil {
			return OrderCond{}, false, err
		}
		return OrderCond{Expr: e}, true, nil
	default:
		return OrderCond{}, false, nil
	}
}

func isBuiltinName(s string) bool {
	_, ok := builtins[strings.ToUpper(s)]
	return ok
}

// validate applies post-parse semantic checks.
func validate(q *Query) error {
	if q.Where == nil && q.Form != FormDescribe {
		return &SyntaxError{Line: 1, Col: 1, Msg: "query has no WHERE clause"}
	}
	if q.Form == FormConstruct {
		for _, t := range q.Template {
			if t.S.Kind == rdf.KindLiteral {
				return &SyntaxError{Line: 1, Col: 1, Msg: "literal subject in CONSTRUCT template"}
			}
		}
	}
	if q.Form == FormSelect && !q.Star && q.Where != nil {
		inScope := q.Where.Vars()
		for _, v := range q.SelectVars {
			if !slices.Contains(inScope, v) {
				return &SyntaxError{Line: 1, Col: 1,
					Msg: fmt.Sprintf("projected variable ?%s does not occur in the WHERE clause", v)}
			}
		}
	}
	return nil
}
