package main

import (
	"go/ast"
	"go/token"
)

// checkGoroutines enforces goroutine hygiene: a `go func` literal must be
// visibly tied to a lifecycle mechanism — a WaitGroup (defer wg.Done()),
// a done/result channel it sends on or receives from, or a context it
// watches. Fire-and-forget goroutines leak under churn and defeat the
// leak assertions in the test suites.
func checkGoroutines(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		for _, f := range p.AllFiles() {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // `go method()` — ownership lives at the callee
				}
				if !goroutineIsTied(lit) {
					diags = append(diags, diagAt(p, g.Pos(),
						"go func literal has no visible lifecycle: tie it to a sync.WaitGroup (defer wg.Done()), a done-channel, or a context"))
				}
				return true
			})
		}
	}
	return diags
}

// goroutineIsTied looks for lifecycle evidence inside the literal's body.
func goroutineIsTied(lit *ast.FuncLit) bool {
	tied := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// wg.Done(), ctx.Done(), ctx.Err() — any Done/Err hook counts
			if n.Sel.Name == "Done" {
				tied = true
			}
		case *ast.SendStmt:
			tied = true // reports into a channel someone drains
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				tied = true // waits on a channel someone closes/feeds
			}
		case *ast.SelectStmt:
			tied = true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				tied = true
			}
		case *ast.Ident:
			if n.Name == "ctx" {
				tied = true
			}
		}
		return !tied
	})
	return tied
}
