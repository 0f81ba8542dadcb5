// Package algebra defines the SPARQL algebra operators and the translation
// from the parsed AST into algebra expressions, following the semantics of
// Pérez, Arenas & Gutierrez ("Semantics and complexity of SPARQL") and the
// W3C translation rules referenced in Sect. IV of the paper: AND maps to
// Join, UNION to Union, OPT to LeftJoin and FILTER to a selection.
package algebra

import (
	"fmt"
	"slices"
	"strings"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// Op is one node of a SPARQL algebra expression tree.
type Op interface {
	fmt.Stringer
	// Vars returns the variables that may be bound by evaluating the
	// operator, without duplicates.
	Vars() []string
	// Children returns the operator's direct sub-operators.
	Children() []Op
	isOp()
}

// BGP evaluates a basic graph pattern — the only leaf operator.
type BGP struct {
	Patterns []rdf.Triple
}

// Join is the & of two solution multisets (AND).
type Join struct {
	Left, Right Op
}

// LeftJoin is the left outer join used for OPTIONAL; Expr is the embedded
// filter condition (nil means the constant true used when no filter is
// embedded in the optional group, per the W3C translation rules).
type LeftJoin struct {
	Left, Right Op
	Expr        sparql.Expression
}

// Union merges two solution multisets.
type Union struct {
	Left, Right Op
}

// Filter keeps solutions satisfying Expr.
type Filter struct {
	Expr  sparql.Expression
	Input Op
}

// Graph scopes its input to one named graph (constant Name) or iterates
// the dataset's named graphs binding the variable Name to each graph IRI —
// the GRAPH keyword.
type Graph struct {
	Name  rdf.Term
	Input Op
}

// Project restricts solutions to the named variables.
type Project struct {
	Names []string
	Input Op
}

// Distinct removes duplicate solutions.
type Distinct struct {
	Input Op
}

// Reduced permits (but does not require) duplicate elimination; the
// evaluator implements it as removal of adjacent duplicates.
type Reduced struct {
	Input Op
}

// OrderBy sorts the solution sequence.
type OrderBy struct {
	Conds []sparql.OrderCond
	Input Op
}

// Slice applies OFFSET/LIMIT; -1 means unset.
type Slice struct {
	Offset, Limit int
	Input         Op
}

func (*BGP) isOp()      {}
func (*Join) isOp()     {}
func (*LeftJoin) isOp() {}
func (*Union) isOp()    {}
func (*Filter) isOp()   {}
func (*Graph) isOp()    {}
func (*Project) isOp()  {}
func (*Distinct) isOp() {}
func (*Reduced) isOp()  {}
func (*OrderBy) isOp()  {}
func (*Slice) isOp()    {}

func (o *BGP) Children() []Op      { return nil }
func (o *Join) Children() []Op     { return []Op{o.Left, o.Right} }
func (o *LeftJoin) Children() []Op { return []Op{o.Left, o.Right} }
func (o *Union) Children() []Op    { return []Op{o.Left, o.Right} }
func (o *Filter) Children() []Op   { return []Op{o.Input} }
func (o *Graph) Children() []Op    { return []Op{o.Input} }
func (o *Project) Children() []Op  { return []Op{o.Input} }
func (o *Distinct) Children() []Op { return []Op{o.Input} }
func (o *Reduced) Children() []Op  { return []Op{o.Input} }
func (o *OrderBy) Children() []Op  { return []Op{o.Input} }
func (o *Slice) Children() []Op    { return []Op{o.Input} }

func (o *BGP) Vars() []string {
	return dedup(func(emit func(string)) {
		for _, t := range o.Patterns {
			for _, v := range t.Vars() {
				emit(v)
			}
		}
	})
}

func binaryVars(a, b Op) []string {
	return dedup(func(emit func(string)) {
		for _, v := range a.Vars() {
			emit(v)
		}
		for _, v := range b.Vars() {
			emit(v)
		}
	})
}

func (o *Join) Vars() []string     { return binaryVars(o.Left, o.Right) }
func (o *LeftJoin) Vars() []string { return binaryVars(o.Left, o.Right) }
func (o *Union) Vars() []string    { return binaryVars(o.Left, o.Right) }
func (o *Filter) Vars() []string   { return o.Input.Vars() }
func (o *Graph) Vars() []string {
	return dedup(func(emit func(string)) {
		if o.Name.IsVar() {
			emit(o.Name.Value)
		}
		for _, v := range o.Input.Vars() {
			emit(v)
		}
	})
}
func (o *Project) Vars() []string  { return append([]string(nil), o.Names...) }
func (o *Distinct) Vars() []string { return o.Input.Vars() }
func (o *Reduced) Vars() []string  { return o.Input.Vars() }
func (o *OrderBy) Vars() []string  { return o.Input.Vars() }
func (o *Slice) Vars() []string    { return o.Input.Vars() }

func dedup(gen func(emit func(string))) []string {
	var out []string
	gen(func(v string) {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	})
	return out
}

// String renders the operator tree in the compact functional notation used
// by the paper, e.g. Filter(C1, LeftJoin(BGP(P1 . P2), BGP(P3), true)).
func (o *BGP) String() string {
	parts := make([]string, len(o.Patterns))
	for i, t := range o.Patterns {
		parts[i] = fmt.Sprintf("%s %s %s", t.S, t.P, t.O)
	}
	return "BGP(" + strings.Join(parts, " . ") + ")"
}

func (o *Join) String() string {
	return fmt.Sprintf("Join(%s, %s)", o.Left, o.Right)
}

func (o *LeftJoin) String() string {
	expr := "true"
	if o.Expr != nil {
		expr = o.Expr.String()
	}
	return fmt.Sprintf("LeftJoin(%s, %s, %s)", o.Left, o.Right, expr)
}

func (o *Union) String() string {
	return fmt.Sprintf("Union(%s, %s)", o.Left, o.Right)
}

func (o *Filter) String() string {
	return fmt.Sprintf("Filter(%s, %s)", o.Expr, o.Input)
}

func (o *Graph) String() string {
	return fmt.Sprintf("Graph(%s, %s)", o.Name, o.Input)
}

func (o *Project) String() string {
	return fmt.Sprintf("Project(%s, %s)", strings.Join(o.Names, ","), o.Input)
}

func (o *Distinct) String() string { return fmt.Sprintf("Distinct(%s)", o.Input) }
func (o *Reduced) String() string  { return fmt.Sprintf("Reduced(%s)", o.Input) }

func (o *OrderBy) String() string {
	conds := make([]string, len(o.Conds))
	for i, c := range o.Conds {
		dir := "ASC"
		if c.Desc {
			dir = "DESC"
		}
		conds[i] = fmt.Sprintf("%s(%s)", dir, c.Expr)
	}
	return fmt.Sprintf("OrderBy(%s, %s)", strings.Join(conds, ","), o.Input)
}

func (o *Slice) String() string {
	return fmt.Sprintf("Slice(offset=%d, limit=%d, %s)", o.Offset, o.Limit, o.Input)
}

// Walk visits op and all descendants in pre-order.
func Walk(op Op, visit func(Op)) {
	if op == nil {
		return
	}
	visit(op)
	for _, c := range op.Children() {
		Walk(c, visit)
	}
}

// CountOps returns the number of operator nodes in the tree.
func CountOps(op Op) int {
	n := 0
	Walk(op, func(Op) { n++ })
	return n
}
