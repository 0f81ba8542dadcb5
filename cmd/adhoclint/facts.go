package main

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the shared facts about the simulated fabric that several
// rules read: what a fabric call is, what the handler result shape is, and
// what counts as a write through an lvalue. Each fact has exactly one
// implementation here; the rules are consumers.

// fabricCall is one Network.Call/Send/Transfer/Forward site, or a retried
// Network.CallRetry/TransferRetry site, which is a Call or a Transfer
// re-sent on loss.
type fabricCall struct {
	kind  string // "Call", "Send", "Transfer" or "Forward"
	value string // method wire string ("" when not constant)
}

// responds reports whether the call hands its caller the receiver's
// response: a Call, or a Forward, which returns what its route answered.
func (fc *fabricCall) responds() bool { return fc.kind == "Call" || fc.kind == "Forward" }

// fabricCallAt recognizes a Network.Call/Send/Transfer/Forward/CallRetry/
// TransferRetry call expression.
func (prog *Program) fabricCallAt(p *Package, call *ast.CallExpr) *fabricCall {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	kind, retried := strings.CutSuffix(sel.Sel.Name, "Retry")
	if kind != "Call" && kind != "Transfer" && (kind != "Send" && kind != "Forward" || retried) {
		return nil
	}
	if !prog.isSimnetType(p.Info.Types[sel.X].Type, "Network") || len(call.Args) < 4 {
		return nil
	}
	fc := &fabricCall{kind: kind}
	if tv := p.Info.Types[call.Args[2]]; tv.Value != nil && tv.Value.Kind() == constant.String {
		fc.value = constant.StringVal(tv.Value)
	}
	return fc
}

// isSimnetType reports whether t (possibly behind a pointer) is the named
// type of internal/simnet.
func (prog *Program) isSimnetType(t types.Type, name string) bool {
	return isNamedType(t, prog.simnetPath, name)
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// typeDisplay renders a type compactly ("overlay.PutReq").
func typeDisplay(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func (prog *Program) implementsPayload(t types.Type) bool {
	return prog.payload != nil &&
		(types.Implements(t, prog.payload) || types.Implements(types.NewPointer(t), prog.payload))
}

// handlerShape reports whether fn has the simnet Handler result shape —
// HandleCall itself or a dispatch helper. With payloadOnly the first
// result must additionally be a payload (lots of ordinary API functions
// return (T, VTime, error) to thread virtual time; only payload-returning
// ones put their result on the wire).
func (prog *Program) handlerShape(p *Package, fn *ast.FuncDecl, payloadOnly bool) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) != 3 || res.NumFields() > 3 {
		return false
	}
	if !prog.isSimnetType(p.Info.Types[res.List[1].Type].Type, "VTime") {
		return false
	}
	if !payloadOnly || prog.payload == nil {
		return true
	}
	t0 := p.Info.Types[res.List[0].Type].Type
	return t0 != nil && (prog.isSimnetType(t0, "Payload") || prog.implementsPayload(t0))
}

// writeKind classifies how an lvalue is written.
type writeKind int

const (
	writeAssign writeKind = iota // assignment target; rhs is set for 1:1 assignments
	writeIncDec                  // x++ / x--
	writeDelete                  // first argument of delete
	writeAddr                    // &x — conservatively a write: the pointer may escape to a mutator
)

// eachWrite visits every written lvalue of the subtree (function literals
// included) in source order, with the statement or expression performing
// the write and, for one-to-one assignments, the value stored.
func eachWrite(root ast.Node, visit func(lhs ast.Expr, kind writeKind, at ast.Node, rhs ast.Expr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				visit(lhs, writeAssign, n, rhs)
			}
		case *ast.IncDecStmt:
			visit(n.X, writeIncDec, n, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				visit(n.X, writeAddr, n, nil)
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				visit(n.Args[0], writeDelete, n, nil)
			}
		}
		return true
	})
}

// defOrUse resolves an identifier to its object whether it defines or
// uses it.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// exprRootObj walks selectors, indexes, dereferences and address-of
// operators down to the root identifier's object: the variable whose
// memory the expression reads or writes through (`m := &n.metrics` roots
// m's writes at n).
func exprRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return defOrUse(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}
