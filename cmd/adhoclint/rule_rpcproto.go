package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// The rpc-protocol analysis cross-checks the three legs of the simulated
// RPC protocol against each other:
//
//   - Method* wire-string constants declared in the message packages;
//   - the `switch method` dispatch inside every HandleCall implementation,
//     with the request type each case asserts and the response type it
//     returns;
//   - every Network.Call / Send / Transfer / Forward site, with the static
//     type of the payload argument and (for Call and Forward) the type the
//     caller asserts the response to.
//
// It reports constants invoked over Call/Send/Forward with no dispatch case
// anywhere (Transfer runs no handler, so Transfer-only methods are
// exempt), dispatch cases whose wire string matches no known constant,
// fabric calls whose payload type disagrees with what the handler asserts,
// response assertions that disagree with what the handler returns, method
// arguments passed as raw string literals, duplicated wire strings, and
// messages.go structs that neither implement simnet.Payload nor occur
// inside a payload struct.

// methodConst is one Method* wire-string constant.
type methodConst struct {
	name  string
	value string
	pkg   *Package
	pos   token.Pos
}

// checkRPCProtocol runs the whole-program protocol cross-check.
func checkRPCProtocol(prog *Program) []Diagnostic {
	consts := prog.MethodConsts()
	calls := prog.FabricCalls()

	known := map[string]bool{}
	for _, c := range consts {
		known[c.value] = true
	}
	casesByValue := map[string][]*dispatchCase{}
	for _, h := range prog.Handlers() {
		for i := range h.cases {
			for _, v := range h.cases[i].values {
				casesByValue[v.value] = append(casesByValue[v.value], &h.cases[i])
			}
		}
	}
	invoked := map[string]bool{} // reached a handler via Call or Send
	for _, c := range calls {
		if c.value != "" && c.kind != "Transfer" {
			invoked[c.value] = true
		}
	}

	var diags []Diagnostic

	seenValue := map[string]*methodConst{}
	for _, c := range consts {
		if prev, dup := seenValue[c.value]; dup {
			if prog.Analyzed(c.pkg) {
				diags = append(diags, diagAt(c.pkg, c.pos,
					fmt.Sprintf("%s duplicates wire string %q already used by %s", c.name, c.value, prev.name)))
			}
			continue
		}
		seenValue[c.value] = c
		if prog.Analyzed(c.pkg) && invoked[c.value] && len(casesByValue[c.value]) == 0 {
			diags = append(diags, diagAt(c.pkg, c.pos,
				fmt.Sprintf("%s (%q) is invoked via Call/Send but no HandleCall dispatches it", c.name, c.value)))
		}
	}

	for _, h := range prog.Handlers() {
		p := h.node.pkg
		if !prog.Analyzed(p) {
			continue
		}
		display := "HandleCall"
		if tn := recvTypeName(h.node.decl); tn != "" {
			display = fmt.Sprintf("%s.(*%s).HandleCall", p.Types.Name(), tn)
		}
		for _, dc := range h.cases {
			for _, v := range dc.values {
				if !known[v.value] {
					diags = append(diags, diagAt(p, v.pos,
						fmt.Sprintf("%s dispatches %q, which matches no Method* constant", display, v.value)))
				}
			}
		}
	}

	for _, c := range calls {
		if !prog.Analyzed(c.pkg) {
			continue
		}
		if c.literal {
			diags = append(diags, diagAt(c.pkg, c.pos,
				fmt.Sprintf("method passed to %s as string literal %q; define a Method* constant", c.kind, c.value)))
		}
		if c.kind == "Transfer" || c.value == "" {
			continue // no handler runs; nothing to agree with
		}
		handlers := casesByValue[c.value]
		if c.reqType != nil {
			if want := handlerReqTypes(handlers); len(want) > 0 && !containsIdentical(want, c.reqType) {
				diags = append(diags, diagAt(c.pkg, c.pos,
					fmt.Sprintf("%s of %q sends %s but its handler asserts %s",
						c.kind, c.value, typeDisplay(c.reqType), typeListDisplay(want))))
			}
		}
		if c.respAssert != nil {
			if want := handlerRespType(handlers); want != nil && !types.Identical(want, c.respAssert) {
				diags = append(diags, diagAt(c.pkg, c.pos,
					fmt.Sprintf("response of %q is asserted to %s but its handler returns %s",
						c.value, typeDisplay(c.respAssert), typeDisplay(want))))
			}
		}
	}

	return append(diags, checkPayloadImpls(prog)...)
}

// MethodConsts returns (collecting on first use) every string constant
// whose name starts with "Method"/"method" in the production files of the
// loaded packages.
func (prog *Program) MethodConsts() []*methodConst {
	if prog.methodConsts != nil {
		return prog.methodConsts
	}
	out := []*methodConst{}
	for _, p := range prog.Loaded() {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Method") && !strings.HasPrefix(name.Name, "method") {
							continue
						}
						c, ok := p.Info.Defs[name].(*types.Const)
						if !ok || c.Val().Kind() != constant.String {
							continue
						}
						out = append(out, &methodConst{
							name:  name.Name,
							value: constant.StringVal(c.Val()),
							pkg:   p,
							pos:   name.Pos(),
						})
					}
				}
			}
		}
	}
	prog.methodConsts = out
	return out
}

// FabricCalls returns (collecting on first use) every Network.Call/Send/
// Transfer site of the loaded packages, with the response assertion (when
// the Call result is later type-asserted through the variable it was
// assigned to).
func (prog *Program) FabricCalls() []*fabricCall {
	if prog.fabricCalls == nil {
		prog.fabricCalls = []*fabricCall{}
		for _, p := range prog.Loaded() {
			eachFuncDecl(p.Files, func(fn *ast.FuncDecl) {
				prog.fabricCalls = append(prog.fabricCalls, prog.fabricCallsIn(p, fn)...)
			})
		}
	}
	return prog.fabricCalls
}

func (prog *Program) fabricCallsIn(p *Package, fn *ast.FuncDecl) []*fabricCall {
	var out []*fabricCall
	respVars := map[types.Object]*fabricCall{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// `resp, done, err := net.Call(...)`: remember which variable
			// carries the response so a later resp.(T) can be matched up.
			if len(n.Rhs) != 1 || len(n.Lhs) != 3 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := prog.fabricCallAt(p, call)
			if fc == nil {
				return true
			}
			out = append(out, fc)
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" && fc.responds() {
				if obj := defOrUse(p.Info, id); obj != nil {
					respVars[obj] = fc
				}
			}
			return true
		case *ast.CallExpr:
			if fc := prog.fabricCallAt(p, n); fc != nil {
				out = append(out, fc)
			}
			return true
		case *ast.TypeAssertExpr:
			if n.Type == nil {
				return true
			}
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				if fc, tracked := respVars[p.Info.Uses[id]]; tracked && fc.respAssert == nil {
					fc.respAssert = p.Info.Types[n.Type].Type
				}
			}
			return true
		}
		return true
	})
	// Direct CallExprs nested inside recorded assignments are revisited by
	// the walk; dedupe by position.
	seen := map[token.Pos]bool{}
	var dedup []*fabricCall
	for _, fc := range out {
		if !seen[fc.pos] {
			seen[fc.pos] = true
			dedup = append(dedup, fc)
		}
	}
	return dedup
}

// handlerReqTypes unions the request types asserted by the cases of one
// method.
func handlerReqTypes(cases []*dispatchCase) []types.Type {
	var out []types.Type
	for _, c := range cases {
		for _, t := range c.reqTypes {
			if !containsIdentical(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}

// handlerRespType returns the sole concrete response type across the cases
// of one method, or nil when cases disagree or are opaque.
func handlerRespType(cases []*dispatchCase) types.Type {
	var resp types.Type
	for _, c := range cases {
		if c.respType == nil {
			return nil
		}
		if resp == nil {
			resp = c.respType
		} else if !types.Identical(resp, c.respType) {
			return nil
		}
	}
	return resp
}

func containsIdentical(ts []types.Type, t types.Type) bool {
	for _, have := range ts {
		if types.Identical(have, t) {
			return true
		}
	}
	return false
}

// typeDisplay renders a type compactly ("overlay.PutReq").
func typeDisplay(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func typeListDisplay(ts []types.Type) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = typeDisplay(t)
	}
	sort.Strings(names)
	return strings.Join(names, " or ")
}

// checkPayloadImpls flags structs declared in messages.go files that
// neither implement simnet.Payload nor occur (transitively) as a field or
// element type of a struct that does: such a struct cannot go on the wire
// and is either dead or missing its SizeBytes.
func checkPayloadImpls(prog *Program) []Diagnostic {
	if prog.payload == nil {
		return nil
	}
	var diags []Diagnostic
	for _, p := range prog.Loaded() {
		if !prog.Analyzed(p) {
			continue
		}
		type structDecl struct {
			name *ast.Ident
			typ  types.Type
		}
		var declared []structDecl
		var payloads []types.Type
		for _, f := range p.Files {
			if filepath.Base(p.Fset.Position(f.Pos()).Filename) != "messages.go" {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
						continue
					}
					declared = append(declared, structDecl{ts.Name, tn.Type()})
					if prog.implementsPayload(tn.Type()) {
						payloads = append(payloads, tn.Type())
					}
				}
			}
		}
		if len(declared) == 0 {
			continue
		}
		components := map[types.Type]bool{}
		for _, t := range payloads {
			markComponents(t, components, map[types.Type]bool{})
		}
		for _, d := range declared {
			if prog.implementsPayload(d.typ) || components[d.typ] {
				continue
			}
			diags = append(diags, diagAt(p, d.name.Pos(),
				fmt.Sprintf("%s is declared in messages.go but neither implements simnet.Payload nor occurs inside a payload struct", d.name.Name)))
		}
	}
	return diags
}

// markComponents records every named type reachable through the fields,
// elements and map keys/values of a payload struct.
func markComponents(t types.Type, components, visiting map[types.Type]bool) {
	if visiting[t] {
		return
	}
	visiting[t] = true
	switch u := t.(type) {
	case *types.Pointer:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Slice:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Array:
		markComponents(u.Elem(), components, visiting)
		return
	case *types.Map:
		markComponents(u.Key(), components, visiting)
		markComponents(u.Elem(), components, visiting)
		return
	}
	if named, ok := t.(*types.Named); ok {
		if !components[named] {
			components[named] = true
		}
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			markComponents(st.Field(i).Type(), components, visiting)
		}
	}
}
