package main

import (
	"fmt"
	"go/ast"
	"strings"
)

// guardedStruct describes one struct that owns a mutex named "mu": per the
// project convention (see DESIGN.md "Concurrency & determinism
// conventions"), the fields declared after mu are guarded by it, the
// fields before it are immutable after construction or independently
// synchronized.
type guardedStruct struct {
	name   string
	fields map[string]bool // guarded field names
}

// collectGuardedStructs finds every convention-following struct in the
// package's files.
func collectGuardedStructs(files []*ast.File) map[string]guardedStruct {
	out := map[string]guardedStruct{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			guarded := map[string]bool{}
			seenMu := false
			for _, field := range st.Fields.List {
				if !seenMu {
					if len(field.Names) == 1 && field.Names[0].Name == "mu" && isSyncMutexType(field.Type) {
						seenMu = true
					}
					continue
				}
				for _, name := range field.Names {
					guarded[name.Name] = true
				}
			}
			if seenMu && len(guarded) > 0 {
				out[ts.Name.Name] = guardedStruct{name: ts.Name.Name, fields: guarded}
			}
			return true
		})
	}
	return out
}

func isSyncMutexType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "sync" {
		return false
	}
	return sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex"
}

// checkGuardedFields enforces the mu-guards-following-fields convention:
// in a method of a mutex-owning struct, every access to a guarded field
// through the receiver must sit inside a held-lock region of the
// receiver's mu. Methods whose name ends in "Locked" are assumed to be
// called with the lock already held and are skipped.
func checkGuardedFields(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		for _, group := range [][]*ast.File{p.Files, p.TestFiles} {
			structs := collectGuardedStructs(group)
			if len(structs) == 0 {
				continue
			}
			eachFuncDecl(group, func(fn *ast.FuncDecl) {
				gs, ok := structs[recvTypeName(fn)]
				recv := recvName(fn)
				if !ok || recv == "" || strings.HasSuffix(fn.Name.Name, "Locked") {
					return
				}
				locks := prog.LockFacts(p, fn)
				owner := recv + ".mu"
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					base, ok := sel.X.(*ast.Ident)
					if !ok || base.Name != recv || !gs.fields[sel.Sel.Name] {
						return true
					}
					if _, held := locks.convHeld(sel.Pos(), owner); !held {
						diags = append(diags, diagAt(p, sel.Pos(),
							fmt.Sprintf("%s.%s is guarded by %s (declared after it) but accessed in %s without holding the lock",
								recv, sel.Sel.Name, owner, fn.Name.Name)))
					}
					return true
				})
			})
		}
	}
	return diags
}
