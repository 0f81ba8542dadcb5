package sparql

import (
	"fmt"
	"slices"
	"strings"

	"adhocshare/internal/rdf"
)

// QueryForm enumerates the four SPARQL query forms (Sect. IV-A of the
// paper).
type QueryForm int

const (
	// FormSelect projects variable bindings.
	FormSelect QueryForm = iota
	// FormAsk returns a boolean.
	FormAsk
	// FormConstruct instantiates a triple template.
	FormConstruct
	// FormDescribe returns triples describing resources.
	FormDescribe
)

func (f QueryForm) String() string {
	switch f {
	case FormSelect:
		return "SELECT"
	case FormAsk:
		return "ASK"
	case FormConstruct:
		return "CONSTRUCT"
	case FormDescribe:
		return "DESCRIBE"
	default:
		return "UNKNOWN"
	}
}

// Query is the abstract syntax tree of one SPARQL query.
type Query struct {
	Base     string
	Prefixes map[string]string

	Form     QueryForm
	Distinct bool
	Reduced  bool
	// Star is true for SELECT * / DESCRIBE *.
	Star bool
	// SelectVars lists projected variable names for SELECT.
	SelectVars []string
	// DescribeTerms lists the IRIs/variables of a DESCRIBE form.
	DescribeTerms []rdf.Term
	// Template holds the CONSTRUCT triple template.
	Template []rdf.Triple

	// From and FromNamed carry the dataset clause IRIs. When both are empty
	// the dataset is the union of all storage-node data (paper Sect. IV-A).
	From      []string
	FromNamed []string

	Where GraphPattern

	OrderBy []OrderCond
	// Limit and Offset are -1 when unset.
	Limit  int
	Offset int
}

// OrderCond is one ORDER BY condition.
type OrderCond struct {
	Expr Expression
	Desc bool
}

// GraphPattern is the interface satisfied by all graph-pattern AST nodes.
type GraphPattern interface {
	fmt.Stringer
	// Vars returns every variable mentioned by the pattern, without
	// duplicates, in first-appearance order.
	Vars() []string
	isGraphPattern()
}

// BGP is a basic graph pattern: a set of triple patterns joined by AND
// (the "." concatenation operator, Sect. IV-B).
type BGP struct {
	Patterns []rdf.Triple
}

// Group is a braced sequence of patterns { e1 . e2 ... }. Per the SPARQL
// semantics its elements are joined; FILTERs inside apply to the whole
// group and OPTIONAL elements left-join against the group built so far.
type Group struct {
	Elems []GraphPattern
}

// Union is the UNION of two graph patterns.
type Union struct {
	Left, Right GraphPattern
}

// Optional marks its pattern as OPTIONAL relative to the enclosing group.
type Optional struct {
	Pattern GraphPattern
}

// Filter is a FILTER constraint element inside a group.
type Filter struct {
	Expr Expression
}

// GraphPat is a GRAPH name { ... } pattern: the inner pattern is matched
// against one named graph (constant IRI) or against every named graph of
// the dataset with the variable bound to the graph's IRI.
type GraphPat struct {
	Name    rdf.Term // IRI or variable
	Pattern GraphPattern
}

func (*BGP) isGraphPattern()      {}
func (*Group) isGraphPattern()    {}
func (*Union) isGraphPattern()    {}
func (*Optional) isGraphPattern() {}
func (*Filter) isGraphPattern()   {}
func (*GraphPat) isGraphPattern() {}

// String renders the BGP in query syntax.
func (b *BGP) String() string {
	var sb strings.Builder
	for i, t := range b.Patterns {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %s %s .", t.S, t.P, t.O)
	}
	return sb.String()
}

func (g *Group) String() string {
	parts := make([]string, len(g.Elems))
	for i, e := range g.Elems {
		parts[i] = e.String()
	}
	return "{ " + strings.Join(parts, " ") + " }"
}

func (u *Union) String() string {
	return fmt.Sprintf("%s UNION %s", u.Left, u.Right)
}

func (o *Optional) String() string {
	return "OPTIONAL " + o.Pattern.String()
}

func (f *Filter) String() string {
	return "FILTER(" + f.Expr.String() + ")"
}

func (g *GraphPat) String() string {
	return "GRAPH " + g.Name.String() + " " + g.Pattern.String()
}

// Vars implementations.

func (b *BGP) Vars() []string {
	return dedupVars(func(emit func(string)) {
		for _, t := range b.Patterns {
			for _, x := range [...]rdf.Term{t.S, t.P, t.O} {
				if x.IsVar() {
					emit(x.Value)
				}
			}
		}
	})
}

func (g *Group) Vars() []string {
	return dedupVars(func(emit func(string)) {
		for _, e := range g.Elems {
			for _, v := range e.Vars() {
				emit(v)
			}
		}
	})
}

func (u *Union) Vars() []string {
	return dedupVars(func(emit func(string)) {
		for _, v := range u.Left.Vars() {
			emit(v)
		}
		for _, v := range u.Right.Vars() {
			emit(v)
		}
	})
}

func (o *Optional) Vars() []string { return o.Pattern.Vars() }

func (f *Filter) Vars() []string { return f.Expr.Vars() }

func (g *GraphPat) Vars() []string {
	return dedupVars(func(emit func(string)) {
		if g.Name.IsVar() {
			emit(g.Name.Value)
		}
		for _, v := range g.Pattern.Vars() {
			emit(v)
		}
	})
}

func dedupVars(gen func(emit func(string))) []string {
	var out []string
	gen(func(v string) {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	})
	return out
}

// Expression is the interface satisfied by all FILTER/ORDER BY expression
// nodes.
//
// Expression trees are immutable after parsing: evaluation only reads
// them, so a pushed-down FILTER can ship between nodes without copying.
type Expression interface {
	fmt.Stringer
	// Vars returns the variables referenced by the expression.
	Vars() []string
	isExpression()
}

// ExprVar references a variable's bound value.
type ExprVar struct{ Name string }

// ExprTerm is a constant RDF term (IRI or literal).
type ExprTerm struct{ Term rdf.Term }

// ExprOr is logical disjunction.
type ExprOr struct{ Left, Right Expression }

// ExprAnd is logical conjunction.
type ExprAnd struct{ Left, Right Expression }

// ExprNot is logical negation.
type ExprNot struct{ X Expression }

// ExprNeg is arithmetic unary minus.
type ExprNeg struct{ X Expression }

// CmpOp enumerates relational operators.
type CmpOp int

// Relational operators.
const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpGt
	CmpLe
	CmpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", ">", "<=", ">="}[op]
}

// ExprCmp is a relational comparison.
type ExprCmp struct {
	Op          CmpOp
	Left, Right Expression
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[op]
}

// ExprArith is a binary arithmetic expression.
type ExprArith struct {
	Op          ArithOp
	Left, Right Expression
}

// ExprCall is a built-in function call such as REGEX, BOUND or STR. Name is
// stored upper-case.
type ExprCall struct {
	Name string
	Args []Expression
}

func (*ExprVar) isExpression()   {}
func (*ExprTerm) isExpression()  {}
func (*ExprOr) isExpression()    {}
func (*ExprAnd) isExpression()   {}
func (*ExprNot) isExpression()   {}
func (*ExprNeg) isExpression()   {}
func (*ExprCmp) isExpression()   {}
func (*ExprArith) isExpression() {}
func (*ExprCall) isExpression()  {}

func (e *ExprVar) String() string  { return "?" + e.Name }
func (e *ExprTerm) String() string { return e.Term.String() }
func (e *ExprOr) String() string {
	return fmt.Sprintf("(%s || %s)", e.Left, e.Right)
}
func (e *ExprAnd) String() string {
	return fmt.Sprintf("(%s && %s)", e.Left, e.Right)
}
func (e *ExprNot) String() string { return "!(" + e.X.String() + ")" }
func (e *ExprNeg) String() string { return "-(" + e.X.String() + ")" }
func (e *ExprCmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}
func (e *ExprArith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right)
}
func (e *ExprCall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e *ExprVar) Vars() []string  { return []string{e.Name} }
func (e *ExprTerm) Vars() []string { return nil }
func (e *ExprOr) Vars() []string   { return mergeVars(e.Left.Vars(), e.Right.Vars()) }
func (e *ExprAnd) Vars() []string  { return mergeVars(e.Left.Vars(), e.Right.Vars()) }
func (e *ExprNot) Vars() []string  { return e.X.Vars() }
func (e *ExprNeg) Vars() []string  { return e.X.Vars() }
func (e *ExprCmp) Vars() []string  { return mergeVars(e.Left.Vars(), e.Right.Vars()) }
func (e *ExprArith) Vars() []string {
	return mergeVars(e.Left.Vars(), e.Right.Vars())
}
func (e *ExprCall) Vars() []string {
	var out []string
	for _, a := range e.Args {
		out = mergeVars(out, a.Vars())
	}
	return out
}

func mergeVars(a, b []string) []string {
	out := append([]string(nil), a...)
	seen := map[string]bool{}
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
