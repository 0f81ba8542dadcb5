package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The guarded-field rule is the project's one locking convention (DESIGN.md
// §7). Several clients may drive one deployment, so a node serves its
// handlers and its exported methods concurrently, and every field it keeps
// is either guarded or frozen:
//
//  1. every sync.Mutex/RWMutex field (or an alias of one) guards the fields declared after it, up
//     to the next mutex field; a method touches them only while holding it;
//  2. a write (assignment, ++/--, delete) needs the guard held by Lock, not
//     RLock;
//  3. on a node type — a struct with a HandleCall method — the fields
//     declared before its first mutex (every field, when it has none) are
//     immutable after construction: no method of the type writes them;
//  4. through a one-level receiver chain n.f.g, where f is a same-package
//     struct whose mutex m guards g, the guard is n.f.m;
//  5. a call n.xLocked(...) sits inside a region holding one of n's
//     mutexes, or inside another …Locked method.
//
// A …Locked method is called with its receiver's lock held, so clauses 1,
// 2, 4 and 5 trust it. Clause 3 covers production files only: test doubles
// with a HandleCall method keep counters of what they saw.

// guardedStruct is the convention's view of one struct type.
type guardedStruct struct {
	guard   map[string]string // field → the mutex field declared last before it
	mutexes []string
	before  map[string]bool   // fields declared before the first mutex
	types   map[string]string // field → its type's name, for T and *T
	node    bool              // has a HandleCall method: before is frozen
}

// collectGuardedStructs indexes every struct type of one file group, typed
// by info when it is set; node types (clause 3) are marked only when nodes
// is set.
func collectGuardedStructs(files []*ast.File, info *types.Info, nodes bool) map[string]*guardedStruct {
	out := map[string]*guardedStruct{}
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
			gs := &guardedStruct{guard: map[string]string{}, before: map[string]bool{}, types: map[string]string{}}
			for _, field := range st.Fields.List {
				if isMutexType(info, field.Type) && len(field.Names) > 0 {
					for _, name := range field.Names {
						gs.mutexes = append(gs.mutexes, name.Name)
					}
					continue
				}
				t := field.Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				for _, name := range field.Names {
					if id, ok := t.(*ast.Ident); ok {
						gs.types[name.Name] = id.Name
					}
					if len(gs.mutexes) == 0 {
						gs.before[name.Name] = true
					} else {
						gs.guard[name.Name] = gs.mutexes[len(gs.mutexes)-1]
					}
				}
			}
			out[ts.Name.Name] = gs
			return true
		})
	}
	if nodes {
		eachFuncDecl(files, func(fn *ast.FuncDecl) {
			if gs := out[recvTypeName(fn)]; gs != nil && fn.Name.Name == "HandleCall" {
				gs.node = true
			}
		})
	}
	return out
}

// isMutexType reports whether a field's type is sync.Mutex or
// sync.RWMutex, through any alias: lockcheck's types are aliases of them in
// the build the linter loads. Test files carry no type information (info
// is nil); there the spelled sync selector decides.
func isMutexType(info *types.Info, t ast.Expr) bool {
	var pkg, name string
	if info != nil {
		named, ok := types.Unalias(info.TypeOf(t)).(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		pkg, name = named.Obj().Pkg().Path(), named.Obj().Name()
	} else if sel, ok := t.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			pkg, name = id.Name, sel.Sel.Name
		}
	}
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// checkGuardedFields enforces the convention over every method of every
// struct in the analyzed packages, test files included.
func checkGuardedFields(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		for i, group := range [][]*ast.File{p.Files, p.TestFiles} {
			info := p.Info
			if i > 0 {
				info = nil
			}
			structs := collectGuardedStructs(group, info, i == 0)
			eachFuncDecl(group, func(fn *ast.FuncDecl) {
				if gs, recv := structs[recvTypeName(fn)], recvName(fn); gs != nil && recv != "" {
					diags = append(diags, checkGuardedMethod(prog, p, fn, recv, gs, structs)...)
				}
			})
		}
	}
	return diags
}

// checkGuardedMethod applies the five clauses to one method body.
func checkGuardedMethod(prog *Program, p *Package, fn *ast.FuncDecl, recv string, gs *guardedStruct, structs map[string]*guardedStruct) []Diagnostic {
	var diags []Diagnostic
	name := fn.Name.Name
	trusted := strings.HasSuffix(name, "Locked")
	locks := prog.LockFacts(fn)
	writes := map[*ast.SelectorExpr]bool{}
	eachWrite(fn.Body, func(lhs ast.Expr) {
		for {
			switch x := lhs.(type) {
			case *ast.ParenExpr:
				lhs = x.X
			case *ast.IndexExpr:
				lhs = x.X
			case *ast.StarExpr:
				lhs = x.X
			case *ast.SelectorExpr:
				writes[x] = true
				return
			default:
				return
			}
		}
	})
	need := func(sel *ast.SelectorExpr, field, mutex string) {
		if trusted {
			return
		}
		write := writes[sel]
		switch {
		case !locks.holds(sel.Pos(), mutex, false):
			diags = append(diags, diagAt(p, sel.Pos(), fmt.Sprintf(
				"%s is guarded by %s (declared after it) but accessed in %s without holding the lock", field, mutex, name)))
		case write && !locks.holds(sel.Pos(), mutex, true):
			diags = append(diags, diagAt(p, sel.Pos(), fmt.Sprintf(
				"%s is guarded by %s but written in %s under its read lock; a write needs Lock", field, mutex, name)))
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if base, ok := n.X.(*ast.Ident); ok && base.Name == recv {
				f := n.Sel.Name
				if gs.node && gs.before[f] && writes[n] {
					diags = append(diags, diagAt(p, n.Pos(), fmt.Sprintf(
						"%s.%s is set at construction (node type %s, declared before any mutex) but written in %s",
						recv, f, recvTypeName(fn), name)))
				}
				if mu, ok := gs.guard[f]; ok {
					need(n, recv+"."+f, recv+"."+mu)
				}
			}
			if inner, ok := n.X.(*ast.SelectorExpr); ok {
				if base, ok := inner.X.(*ast.Ident); ok && base.Name == recv {
					if fs := structs[gs.types[inner.Sel.Name]]; fs != nil {
						if mu, ok := fs.guard[n.Sel.Name]; ok {
							chain := recv + "." + inner.Sel.Name
							need(n, chain+"."+n.Sel.Name, chain+"."+mu)
						}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || trusted || !strings.HasSuffix(sel.Sel.Name, "Locked") {
				return true
			}
			if base, ok := sel.X.(*ast.Ident); !ok || base.Name != recv {
				return true
			}
			for _, mu := range gs.mutexes {
				if locks.holds(n.Pos(), recv+"."+mu, false) {
					return true
				}
			}
			diags = append(diags, diagAt(p, n.Pos(), fmt.Sprintf(
				"%s calls %s.%s without holding a mutex of %s", name, recv, sel.Sel.Name, recv)))
		}
		return true
	})
	return diags
}

// eachWrite visits every written lvalue of the subtree (function literals
// included) in source order: assignment targets, x++/x-- operands and the
// first argument of delete.
func eachWrite(root ast.Node, visit func(lhs ast.Expr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				visit(lhs)
			}
		case *ast.IncDecStmt:
			visit(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				visit(n.Args[0])
			}
		}
		return true
	})
}
