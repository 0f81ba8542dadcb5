package main

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the shared facts about the simulated fabric that several
// rules read: what a fabric call is, which functions transitively perform
// one, which functions are RPC handlers and what their dispatch switches
// look like, and what counts as a write through an lvalue. Each fact has
// exactly one implementation here; the rules are consumers.

// fabricCall is one Network.Call/Send/Transfer/Forward site, or a retried
// Network.CallRetry/TransferRetry site, which is a Call or a Transfer
// re-sent on loss.
type fabricCall struct {
	kind       string // "Call", "Send", "Transfer" or "Forward"
	retried    bool   // CallRetry or TransferRetry
	value      string // method wire string ("" when not constant)
	literal    bool   // method passed as a raw string literal
	pkg        *Package
	pos        token.Pos
	reqType    types.Type // static payload type, nil when opaque/interface
	respAssert types.Type // type the caller asserts the response to (rpc-protocol fills it in)
}

// responds reports whether the call hands its caller the receiver's
// response: a Call, or a Forward, which returns what its route answered.
func (fc *fabricCall) responds() bool { return fc.kind == "Call" || fc.kind == "Forward" }

// resent reports whether the call's method is re-delivered after a loss: a
// CallRetry, or a Forward, whose route its origin re-sends whole.
func (fc *fabricCall) resent() bool { return fc.retried && fc.kind == "Call" || fc.kind == "Forward" }

// errPos indexes the error among the call's results: Call and Forward
// return (Payload, VTime, error), Send and Transfer (VTime, error).
func (fc *fabricCall) errPos() int {
	if fc.responds() {
		return 2
	}
	return 1
}

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
	fc := &fabricCall{kind: kind, retried: retried, pkg: p, pos: call.Pos()}
	methodArg := call.Args[2]
	if tv := p.Info.Types[methodArg]; tv.Value != nil && tv.Value.Kind() == constant.String {
		fc.value = constant.StringVal(tv.Value)
	}
	if _, isLit := unparen(methodArg).(*ast.BasicLit); isLit {
		fc.literal = true
	}
	if t := p.Info.Types[call.Args[3]].Type; t != nil {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			fc.reqType = t
		}
	}
	return fc
}

// isSimnetFunc reports whether callee is the named package-level function
// of internal/simnet (Parallel).
func (prog *Program) isSimnetFunc(callee *types.Func, name string) bool {
	return callee != nil && callee.Name() == name &&
		callee.Pkg() != nil && callee.Pkg().Path() == prog.simnetPath
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

func (prog *Program) implementsPayload(t types.Type) bool {
	return prog.payload != nil &&
		(types.Implements(t, prog.payload) || types.Implements(types.NewPointer(t), prog.payload))
}

// fabricReach is the closure of "performs a fabric call" over static
// calls, with one witness step per function: its first direct fabric call,
// or the callee through which the mark arrived.
type fabricReach struct {
	touches map[*types.Func]bool
	direct  map[*types.Func]*fabricCall
	via     map[*types.Func]*types.Func
}

// FabricReach returns (building on first use) the fabric-reach closure.
// With hotExempt set, functions carrying //adhoclint:hotexempt neither
// carry nor propagate the mark — the alloc rule's hot set; the faultpath
// rule wants the plain closure. Callees in the two observability leaves
// never propagate: observation is fabric-neutral by contract
// (observability_knowledge.go).
func (prog *Program) FabricReach(hotExempt bool) *fabricReach {
	slot := 0
	var exempt map[*types.Func]bool
	if hotExempt {
		slot, exempt = 1, prog.HotExempt()
	}
	if prog.reach[slot] != nil {
		return prog.reach[slot]
	}
	r := &fabricReach{
		touches: map[*types.Func]bool{},
		direct:  map[*types.Func]*fabricCall{},
		via:     map[*types.Func]*types.Func{},
	}
	funcs := prog.Funcs().sorted
	for _, n := range funcs {
		if exempt[n.obj] {
			continue
		}
		for _, c := range n.calls {
			if c.fabric != nil {
				r.touches[n.obj], r.direct[n.obj] = true, c.fabric
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range funcs {
			if r.touches[n.obj] || exempt[n.obj] {
				continue
			}
			for _, c := range n.calls {
				if r.touches[c.callee] && !exempt[c.callee] && !observabilityNeutral(c.callee, prog.modPath) {
					r.touches[n.obj], r.via[n.obj] = true, c.callee
					changed = true
					break
				}
			}
		}
	}
	prog.reach[slot] = r
	return r
}

// HotExempt returns the functions declared deliberately cold with an
// //adhoclint:hotexempt directive on (or directly above) the declaration.
func (prog *Program) HotExempt() map[*types.Func]bool {
	if prog.hotExempt == nil {
		prog.hotExempt = map[*types.Func]bool{}
		for _, n := range prog.Funcs().sorted {
			if prog.Directives().at(n.pkg, n.decl.Pos(), "hotexempt") != nil {
				prog.hotExempt[n.obj] = true
			}
		}
	}
	return prog.hotExempt
}

// handler is one HandleCall declaration of a loaded package with the
// cases of its `switch method` dispatch.
type handler struct {
	node   *funcNode
	shaped bool           // has the simnet Handler result shape
	req    types.Object   // the request parameter, nil unless (at, method, req)
	cases  []dispatchCase // in source order
}

// dispatchCase is one `case MethodX, MethodY:` clause of a dispatch
// switch.
type dispatchCase struct {
	clause   *ast.CaseClause
	values   []caseValue
	reqTypes []types.Type // types asserted from the request parameter
	respType types.Type   // sole concrete response type, nil when opaque
}

// caseValue is one constant wire string of a dispatch clause.
type caseValue struct {
	value string
	pos   token.Pos
}

// Handlers returns (building on first use) every HandleCall declaration
// of the loaded packages, in declaration order.
func (prog *Program) Handlers() []*handler {
	if prog.handlers != nil {
		return prog.handlers
	}
	prog.handlers = []*handler{}
	for _, n := range prog.Funcs().sorted {
		if n.decl.Name.Name != "HandleCall" {
			continue
		}
		h := &handler{node: n, shaped: prog.handlerShape(n.pkg, n.decl, false)}
		prog.handlers = append(prog.handlers, h)
		// Handler shape: (at VTime, method string, req Payload).
		var params []*ast.Ident
		for _, field := range n.decl.Type.Params.List {
			params = append(params, field.Names...)
		}
		if len(params) != 3 {
			continue
		}
		info := n.pkg.Info
		method := info.Defs[params[1]]
		h.req = info.Defs[params[2]]
		if method == nil {
			continue
		}
		ast.Inspect(n.decl.Body, func(m ast.Node) bool {
			sw, ok := m.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if tag, ok := sw.Tag.(*ast.Ident); !ok || info.Uses[tag] != method {
				return true
			}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok || cc.List == nil {
					continue
				}
				dc := dispatchCase{clause: cc}
				for _, expr := range cc.List {
					if tv := info.Types[expr]; tv.Value != nil && tv.Value.Kind() == constant.String {
						dc.values = append(dc.values, caseValue{constant.StringVal(tv.Value), expr.Pos()})
					}
				}
				dc.reqTypes, dc.respType = caseBodyFacts(n.pkg, cc.Body, h.req)
				h.cases = append(h.cases, dc)
			}
			return true
		})
	}
	return prog.handlers
}

// caseBodyFacts extracts the request assertions and the response type of
// one dispatch-case body. The response type is the sole concrete type of
// the first return value across the case's three-value returns; a case
// that delegates (single-expression return) or returns interface-typed
// values is opaque (nil).
func caseBodyFacts(p *Package, body []ast.Stmt, reqObj types.Object) (reqTypes []types.Type, respType types.Type) {
	var respTypes []types.Type
	opaque := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if id, ok := unparen(n.X).(*ast.Ident); ok && reqObj != nil && p.Info.Uses[id] == reqObj {
					if t := p.Info.Types[n.Type].Type; t != nil {
						reqTypes = append(reqTypes, t)
					}
				}
			case *ast.ReturnStmt:
				if len(n.Results) != 3 {
					if len(n.Results) > 0 {
						opaque = true // delegation: `return n.other(...)`
					}
					return true
				}
				tv := p.Info.Types[n.Results[0]]
				if tv.Type == nil || tv.IsNil() {
					return true
				}
				if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
					opaque = true
					return true
				}
				if !containsIdentical(respTypes, tv.Type) {
					respTypes = append(respTypes, tv.Type)
				}
			}
			return true
		})
	}
	if opaque || len(respTypes) != 1 {
		return reqTypes, nil
	}
	return reqTypes, respTypes[0]
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
