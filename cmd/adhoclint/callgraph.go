package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callSite is one statically resolved call inside a function body.
type callSite struct {
	callee *types.Func
	call   *ast.CallExpr
	// recv is the rendered receiver chain of a method call ("n",
	// "s.table"), or "" for plain function calls and unrenderable
	// receivers. The lock-order rule compares it against the held mutex's
	// owner to recognize same-object recursive acquisition.
	recv string
}

// funcNode is one production function declaration of a loaded package,
// with the statically resolvable calls of its body in source order.
// Interface-method calls (including simnet's Handler.HandleCall dispatch)
// are deliberately not resolved: following them would smear every
// handler's behavior onto every fabric call site.
type funcNode struct {
	obj      *types.Func
	decl     *ast.FuncDecl
	pkg      *Package
	analyzed bool // declared in a package diagnostics are reported on
	calls    []callSite
}

// funcIndex is the function-declaration index and static call graph over
// the loaded packages. Test files are not indexed: they are not
// type-checked, and every whole-program fact needs types.
type funcIndex struct {
	byObj  map[*types.Func]*funcNode
	sorted []*funcNode // by declaration position
}

// Funcs returns (building on first use) the function index. Rules that
// reason about what a package's own code does — the lock rules — restrict
// themselves to analyzed nodes; the reachability facts follow calls into
// dependencies too.
func (prog *Program) Funcs() *funcIndex {
	if prog.funcs != nil {
		return prog.funcs
	}
	ix := &funcIndex{byObj: map[*types.Func]*funcNode{}}
	for _, p := range prog.Loaded() {
		eachFuncDecl(p.Files, func(fn *ast.FuncDecl) {
			if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				n := &funcNode{obj: obj, decl: fn, pkg: p, analyzed: prog.Analyzed(p), calls: prog.collectCalls(p, fn)}
				ix.byObj[obj] = n
				ix.sorted = append(ix.sorted, n)
			}
		})
	}
	sort.Slice(ix.sorted, func(i, j int) bool { return ix.sorted[i].decl.Pos() < ix.sorted[j].decl.Pos() })
	prog.funcs = ix
	return ix
}

// collectCalls finds the statically resolvable calls in one body.
func (prog *Program) collectCalls(p *Package, fn *ast.FuncDecl) []callSite {
	var calls []callSite
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, recv := staticCallee(p.Info, call)
		if callee == nil {
			return true
		}
		calls = append(calls, callSite{
			callee: callee,
			call:   call,
			recv:   recv,
		})
		return true
	})
	return calls
}

// staticCallee resolves a call expression to the called function object,
// when that is statically evident: a package-level function, or a method
// on a concrete receiver. Interface methods resolve to the interface's
// method object, which has no declaration in the graph and is therefore
// never followed.
func staticCallee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f, ""
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			recv, _ := exprChain(fun.X)
			return f, recv
		}
	}
	return nil, ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// funcDisplay renders a function for diagnostics: "overlay.(*System).Publish"
// or "chord.Converge".
func funcDisplay(f *types.Func) string {
	name := f.Name()
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if f.Pkg() != nil {
			return f.Pkg().Name() + "." + name
		}
		return name
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
		ptr = "*"
	}
	tn := "?"
	if named, isNamed := recv.(*types.Named); isNamed {
		tn = named.Obj().Name()
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	if ptr != "" {
		return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, tn, name)
	}
	return fmt.Sprintf("%s%s.%s", pkg, tn, name)
}

// shortClass trims the module-path prefix of a lock class for display:
// "adhocshare/internal/chord.Node.mu" → "chord.Node.mu".
func shortClass(c lockClass) string {
	s := string(c)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}
