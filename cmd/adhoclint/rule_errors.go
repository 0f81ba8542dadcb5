package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkDiscardedErrors flags `_ = x` where x has type error, and blank
// identifiers occupying an error position of a multi-value assignment, in
// non-test code. Errors in this codebase carry virtual-time and routing
// context (stale nodes, unreachable successors); silently dropping them
// hides exactly the churn conditions Sect. III-D is about.
func checkDiscardedErrors(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				// _ = err  /  _ = f()
				if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isBlank(as.Lhs[0]) {
					if isErrorType(p.Info.TypeOf(as.Rhs[0])) {
						diags = append(diags, diagAt(p, as.Pos(),
							"error discarded with _ =: handle it or document why it is safe to drop"))
					}
					return true
				}
				// x, _ := f()  with the blank in an error slot
				if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
					tuple, ok := p.Info.TypeOf(as.Rhs[0]).(*types.Tuple)
					if !ok || tuple.Len() != len(as.Lhs) {
						return true
					}
					for i, lhs := range as.Lhs {
						if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
							diags = append(diags, diagAt(p, lhs.Pos(),
								fmt.Sprintf("error result %d of the call is discarded with _: handle it or document why it is safe to drop", i+1)))
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// isBlank reports whether the expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
