package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// blockingCalls are selector method names that move simulated messages (the
// simnet fabric operations) or block on wall-clock time. Performing one
// while a mutex is held serializes the whole structure behind one network
// round-trip — the deadlock/latency hazard this rule exists to catch.
var blockingCalls = map[string]string{
	"Call":         "simnet RPC",
	"CallRetry":    "simnet RPC",
	"Forward":      "simnet routed leg",
	"ForwardRetry": "simnet routed leg",
	"Sleep":        "wall-clock sleep",
	"Wait":         "blocking wait",
}

// blockingOp describes the potentially blocking operation a node performs
// itself — a channel operation, a select, or a call whose selector name is
// one of the blocking fabric/clock operations — or returns "".
func blockingOp(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SelectStmt:
		return "select"
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			if kind, blocking := blockingCalls[sel.Sel.Name]; blocking {
				return fmt.Sprintf("%s (.%s)", kind, sel.Sel.Name)
			}
		}
	}
	return ""
}

// checkLockBlocking flags channel operations and simnet fabric calls made
// while any convention-named mutex is held — directly, or (in
// type-checked production code) beneath a call made under the lock.
func checkLockBlocking(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		eachFuncDecl(p.AllFiles(), func(fn *ast.FuncDecl) {
			locks := prog.LockFacts(p, fn)
			if len(locks.regions) == 0 {
				return
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				what := blockingOp(n)
				if what == "" {
					return true
				}
				r, held := locks.convHeld(n.Pos())
				if held {
					diags = append(diags, diagAt(p, n.Pos(), fmt.Sprintf("%s while %s is held in %s", what, r.owner, fn.Name.Name)))
				}
				_, isSelect := n.(*ast.SelectStmt)
				return !(held && isSelect) // one finding per select, not one per case
			})
		})
	}
	return append(diags, prog.LockFindings().blocking...)
}
