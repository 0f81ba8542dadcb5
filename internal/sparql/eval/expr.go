package eval

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"adhocshare/internal/lockcheck"
	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// errExpr marks SPARQL expression evaluation errors. Per the SPARQL
// semantics an error inside a FILTER makes the constraint fail for that
// solution rather than failing the whole query.
var errExpr = errors.New("expression error")

// exprErrf builds one expression error. Errors are the cold failure path
// of FILTER evaluation (the constraint just fails for that solution), so
// the formatting cost here is off the per-message budget by design.
func exprErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errExpr, fmt.Sprintf(format, args...))
}

// Value is the result of evaluating an expression: either an RDF term or a
// derived boolean/numeric value.
type Value struct {
	Term rdf.Term
}

// EvalExpr evaluates an expression against one solution mapping and
// returns the resulting value.
func EvalExpr(e sparql.Expression, b Binding) (Value, error) {
	switch x := e.(type) {
	case *sparql.ExprVar:
		t, ok := b[x.Name]
		if !ok {
			return Value{}, exprErrf("unbound variable ?%s", x.Name)
		}
		return Value{Term: t}, nil
	case *sparql.ExprTerm:
		return Value{Term: x.Term}, nil
	case *sparql.ExprOr:
		// SPARQL logical-or with error tolerance: true || error = true.
		l, lerr := EBVExpr(x.Left, b)
		r, rerr := EBVExpr(x.Right, b)
		switch {
		case lerr == nil && rerr == nil:
			return boolValue(l || r), nil
		case lerr == nil && l:
			return boolValue(true), nil
		case rerr == nil && r:
			return boolValue(true), nil
		default:
			return Value{}, exprErrf("|| operand error")
		}
	case *sparql.ExprAnd:
		// false && error = false.
		l, lerr := EBVExpr(x.Left, b)
		r, rerr := EBVExpr(x.Right, b)
		switch {
		case lerr == nil && rerr == nil:
			return boolValue(l && r), nil
		case lerr == nil && !l:
			return boolValue(false), nil
		case rerr == nil && !r:
			return boolValue(false), nil
		default:
			return Value{}, exprErrf("&& operand error")
		}
	case *sparql.ExprNot:
		v, err := EBVExpr(x.X, b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(!v), nil
	case *sparql.ExprNeg:
		v, err := EvalExpr(x.X, b)
		if err != nil {
			return Value{}, err
		}
		n, ok := rdf.NumericValue(v.Term)
		if !ok {
			return Value{}, exprErrf("unary minus on non-numeric %v", v.Term)
		}
		return numValue(-n), nil
	case *sparql.ExprCmp:
		return evalCmp(x, b)
	case *sparql.ExprArith:
		return evalArith(x, b)
	case *sparql.ExprCall:
		return evalCall(x, b)
	default:
		return Value{}, exprErrf("unsupported expression %T", e)
	}
}

func boolValue(v bool) Value { return Value{Term: rdf.NewBoolean(v)} }

func numValue(v float64) Value {
	if v == float64(int64(v)) {
		return Value{Term: rdf.NewInteger(int64(v))}
	}
	return Value{Term: rdf.NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), rdf.XSDDouble)}
}

// EBV computes the effective boolean value of a term per the SPARQL
// specification: booleans by value, numerics false when 0 or NaN, strings
// false when empty; other terms are a type error.
func EBV(t rdf.Term) (bool, error) {
	if t.Kind != rdf.KindLiteral {
		return false, exprErrf("no effective boolean value for %v", t)
	}
	if t.Datatype() == rdf.XSDBoolean {
		switch t.Value {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		default:
			return false, exprErrf("malformed boolean %q", t.Value)
		}
	}
	if n, ok := rdf.NumericValue(t); ok && t.Datatype() != "" {
		return n != 0, nil
	}
	if dt := t.Datatype(); dt == "" || dt == rdf.XSDString {
		return t.Value != "", nil
	}
	return false, exprErrf("no effective boolean value for %v", t)
}

// EBVExpr evaluates the expression and takes its effective boolean value.
func EBVExpr(e sparql.Expression, b Binding) (bool, error) {
	v, err := EvalExpr(e, b)
	if err != nil {
		return false, err
	}
	return EBV(v.Term)
}

// Satisfies reports whether a mapping satisfies a FILTER condition; errors
// count as unsatisfied (per the SPARQL semantics).
func Satisfies(e sparql.Expression, b Binding) bool {
	if e == nil {
		return true
	}
	ok, err := EBVExpr(e, b)
	return err == nil && ok
}

func evalCmp(x *sparql.ExprCmp, b Binding) (Value, error) {
	l, err := EvalExpr(x.Left, b)
	if err != nil {
		return Value{}, err
	}
	r, err := EvalExpr(x.Right, b)
	if err != nil {
		return Value{}, err
	}
	cmp, eqOnly, err := compareTerms(l.Term, r.Term)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case sparql.CmpEq:
		return boolValue(cmp == 0), nil
	case sparql.CmpNeq:
		return boolValue(cmp != 0), nil
	}
	if eqOnly {
		return Value{}, exprErrf("terms %v and %v are not order-comparable", l.Term, r.Term)
	}
	switch x.Op {
	case sparql.CmpLt:
		return boolValue(cmp < 0), nil
	case sparql.CmpGt:
		return boolValue(cmp > 0), nil
	case sparql.CmpLe:
		return boolValue(cmp <= 0), nil
	case sparql.CmpGe:
		return boolValue(cmp >= 0), nil
	}
	return Value{}, exprErrf("unknown comparison operator")
}

// compareTerms compares two terms. The second result reports that only
// equality tests are defined for the pair (e.g. IRIs).
func compareTerms(a, c rdf.Term) (int, bool, error) {
	an, aok := rdf.NumericValue(a)
	cn, cok := rdf.NumericValue(c)
	if aok && cok {
		switch {
		case an < cn:
			return -1, false, nil
		case an > cn:
			return 1, false, nil
		default:
			return 0, false, nil
		}
	}
	if a.Kind == rdf.KindLiteral && c.Kind == rdf.KindLiteral {
		if isStringish(a) && isStringish(c) && a.Lang() == c.Lang() {
			return strings.Compare(a.Value, c.Value), false, nil
		}
		if a.Datatype() == c.Datatype() && a.Lang() == c.Lang() {
			// same (unknown) datatype: lexical ordering, covers dateTime
			return strings.Compare(a.Value, c.Value), false, nil
		}
		// different datatypes: only (in)equality is defined
		if a == c {
			return 0, true, nil
		}
		return 1, true, nil
	}
	if a.Kind == c.Kind {
		if a == c {
			return 0, true, nil
		}
		return 1, true, nil
	}
	return 1, true, nil
}

func isStringish(t rdf.Term) bool {
	return t.Kind == rdf.KindLiteral && (t.Datatype() == "" || t.Datatype() == rdf.XSDString)
}

func evalArith(x *sparql.ExprArith, b Binding) (Value, error) {
	l, err := EvalExpr(x.Left, b)
	if err != nil {
		return Value{}, err
	}
	r, err := EvalExpr(x.Right, b)
	if err != nil {
		return Value{}, err
	}
	ln, lok := rdf.NumericValue(l.Term)
	rn, rok := rdf.NumericValue(r.Term)
	if !lok || !rok {
		return Value{}, exprErrf("arithmetic on non-numeric operands %v, %v", l.Term, r.Term)
	}
	switch x.Op {
	case sparql.ArithAdd:
		return numValue(ln + rn), nil
	case sparql.ArithSub:
		return numValue(ln - rn), nil
	case sparql.ArithMul:
		return numValue(ln * rn), nil
	case sparql.ArithDiv:
		if rn == 0 {
			return Value{}, exprErrf("division by zero")
		}
		return numValue(ln / rn), nil
	}
	return Value{}, exprErrf("unknown arithmetic operator")
}

func evalCall(x *sparql.ExprCall, b Binding) (Value, error) {
	switch x.Name {
	case "BOUND":
		v, ok := x.Args[0].(*sparql.ExprVar)
		if !ok {
			return Value{}, exprErrf("BOUND requires a variable argument")
		}
		return boolValue(b.Bound(v.Name)), nil
	case "ISIRI", "ISURI":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(t.Term.Kind == rdf.KindIRI), nil
	case "ISBLANK":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(t.Term.Kind == rdf.KindBlank), nil
	case "ISLITERAL":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(t.Term.Kind == rdf.KindLiteral), nil
	case "STR":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		switch t.Term.Kind {
		case rdf.KindIRI, rdf.KindLiteral:
			return Value{Term: rdf.NewLiteral(t.Term.Value)}, nil
		default:
			return Value{}, exprErrf("STR of %v", t.Term)
		}
	case "LANG":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		if t.Term.Kind != rdf.KindLiteral {
			return Value{}, exprErrf("LANG of non-literal")
		}
		return Value{Term: rdf.NewLiteral(t.Term.Lang())}, nil
	case "DATATYPE":
		t, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		if t.Term.Kind != rdf.KindLiteral {
			return Value{}, exprErrf("DATATYPE of non-literal")
		}
		dt := t.Term.Datatype()
		if dt == "" && t.Term.Lang() == "" {
			dt = rdf.XSDString
		}
		return Value{Term: rdf.NewIRI(dt)}, nil
	case "SAMETERM":
		l, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		r, err := EvalExpr(x.Args[1], b)
		if err != nil {
			return Value{}, err
		}
		return boolValue(l.Term == r.Term), nil
	case "LANGMATCHES":
		l, err := EvalExpr(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		r, err := EvalExpr(x.Args[1], b)
		if err != nil {
			return Value{}, err
		}
		tag := strings.ToLower(l.Term.Value)
		rng := strings.ToLower(r.Term.Value)
		if rng == "*" {
			return boolValue(tag != ""), nil
		}
		return boolValue(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "REGEX":
		return evalRegex(x, b)
	default:
		return Value{}, exprErrf("unknown function %s", x.Name)
	}
}

func evalRegex(x *sparql.ExprCall, b Binding) (Value, error) {
	t, err := EvalExpr(x.Args[0], b)
	if err != nil {
		return Value{}, err
	}
	if !isStringish(t.Term) && t.Term.Lang() == "" && t.Term.Kind != rdf.KindLiteral {
		return Value{}, exprErrf("REGEX on non-string %v", t.Term)
	}
	p, err := EvalExpr(x.Args[1], b)
	if err != nil {
		return Value{}, err
	}
	pattern := p.Term.Value
	if len(x.Args) == 3 {
		f, err := EvalExpr(x.Args[2], b)
		if err != nil {
			return Value{}, err
		}
		var goFlags strings.Builder
		for _, r := range f.Term.Value {
			switch r {
			case 'i', 's', 'm':
				goFlags.WriteRune(r)
			case 'x':
				// extended mode unsupported; ignore whitespace manually
			default:
				return Value{}, exprErrf("unsupported REGEX flag %q", r)
			}
		}
		if goFlags.Len() > 0 {
			pattern = "(?" + goFlags.String() + ")" + pattern
		}
	}
	re, err := getRegexp(pattern)
	if err != nil {
		return Value{}, exprErrf("bad REGEX pattern %q: %v", pattern, err)
	}
	return boolValue(re.MatchString(t.Term.Value)), nil
}

// regexCache memoizes compiled patterns; FILTER regex is evaluated once per
// candidate solution, so caching matters for large multisets.
var regexCache = struct {
	lockcheck.RWMutex
	m map[string]*regexp.Regexp
}{m: map[string]*regexp.Regexp{}}

func getRegexp(pattern string) (*regexp.Regexp, error) {
	regexCache.RLock()
	re, ok := regexCache.m[pattern]
	regexCache.RUnlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	regexCache.Lock()
	regexCache.m[pattern] = re
	regexCache.Unlock()
	return re, nil
}
