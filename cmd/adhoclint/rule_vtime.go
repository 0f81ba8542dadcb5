package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The vtime-accounting analysis (rule "vtime") guards the simulation's
// critical-path timing model. Virtual time only stays meaningful if every
// fabric interaction threads the charged VTime:
//
//   - handler-shaped functions (payload, VTime, error) must derive the
//     VTime they return from the charged time they received — the `at`
//     parameter or the done-values of their own fabric calls — not
//     fabricate a constant;
//   - the VTime result of a fabric call must not be discarded (assigned
//     to `_` or dropped with the whole result).
//
// Fan-out needs no check here: the determinism rule admits no `go`
// statement, so concurrency can only flow through simnet.Parallel.
//
// The rule applies to internal/ and cmd/ packages except internal/simnet
// itself (which implements the fabric the rule models) and cmd/adhoclint.
// Suppress a finding with //adhoclint:ignore vtime(reason). A fabric call
// declared //adhoclint:faultpath(fire-and-forget, reason) is exempt from
// the dropped-VTime check: a declared fire-and-forget notification is off
// the critical path by design, so its charged time has no accounting to
// join.

// checkVTime runs the vtime rule over the program.
func checkVTime(prog *Program) []Diagnostic {
	v := &vtimeChecker{prog: prog}
	for _, p := range prog.Pkgs {
		// The rule covers internal/ and cmd/ outside internal/simnet and
		// the linter itself.
		if p.Info == nil || !prog.scopedOutside(p, "internal/simnet") {
			continue
		}
		eachFuncDecl(p.Files, func(fn *ast.FuncDecl) {
			v.checkHandlerVTime(p, fn)
			v.checkDroppedVTime(p, fn)
		})
	}
	return v.diags
}

type vtimeChecker struct {
	prog  *Program
	diags []Diagnostic
}

// fireAndForgetAt reports whether the position carries a
// faultpath(fire-and-forget) declaration on its line or the line above.
func (v *vtimeChecker) fireAndForgetAt(p *Package, pos token.Pos) bool {
	if d := v.prog.Directives().at(p, pos, "faultpath"); d != nil {
		disposition, _ := faultArgs(d)
		return disposition == dispFireAndForget
	}
	return false
}

// checkHandlerVTime flags handler-shaped returns whose VTime is not
// derived from the charged time (the VTime parameters or the done-values
// of the handler's own fabric calls).
func (v *vtimeChecker) checkHandlerVTime(p *Package, fn *ast.FuncDecl) {
	if !v.prog.handlerShape(p, fn, false) {
		return
	}
	taint := map[types.Object]bool{}
	for _, field := range fn.Type.Params.List {
		if !v.prog.isSimnetType(p.Info.Types[field.Type].Type, "VTime") {
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				taint[obj] = true
			}
		}
	}
	tainted := func(e ast.Expr) bool {
		has := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := defOrUse(p.Info, id); obj != nil && taint[obj] {
					has = true
				}
			}
			return !has
		})
		return has
	}
	// Fixpoint: propagate taint through assignments and fabric results. A
	// write through an index or field taints the whole container — reads
	// of it may then yield the charged time.
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr) {
			obj := exprRootObj(p.Info, lhs)
			if obj != nil && !taint[obj] {
				taint[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				if call, ok := asg.Rhs[0].(*ast.CallExpr); ok {
					if fc := v.prog.fabricCallAt(p, call); fc != nil {
						mark(asg.Lhs[fc.donePos()])
						return true
					}
				}
				if tainted(asg.Rhs[0]) {
					for _, lhs := range asg.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, lhs := range asg.Lhs {
				if i >= len(asg.Rhs) {
					break
				}
				if tainted(asg.Rhs[i]) {
					mark(lhs)
				}
			}
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 3 {
			return true
		}
		if !tainted(ret.Results[1]) {
			v.report(p, ret.Results[1].Pos(), fmt.Sprintf(
				"%s returns a VTime unrelated to the charged time; thread the handler's VTime parameter or a fabric done-value instead of fabricating one",
				funcDisplayOf(p, fn)))
		}
		return true
	})
}

// checkDroppedVTime flags fabric calls whose charged VTime is discarded.
func (v *vtimeChecker) checkDroppedVTime(p *Package, fn *ast.FuncDecl) {
	reported := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := v.prog.fabricCallAt(p, call)
			if fc == nil {
				return true
			}
			reported[call] = true
			if fc.donePos() >= len(n.Lhs) {
				return true
			}
			if id, ok := n.Lhs[fc.donePos()].(*ast.Ident); ok && id.Name == "_" &&
				!v.fireAndForgetAt(p, call.Pos()) {
				v.report(p, call.Pos(), fmt.Sprintf(
					"the VTime charged by %s of %q is discarded; thread it into the caller's accounting",
					fc.kind, fc.value))
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && !reported[call] {
				if fc := v.prog.fabricCallAt(p, call); fc != nil && !v.fireAndForgetAt(p, call.Pos()) {
					v.report(p, call.Pos(), fmt.Sprintf(
						"the result of %s of %q (including its charged VTime) is discarded; thread it into the caller's accounting",
						fc.kind, fc.value))
				}
			}
		}
		return true
	})
}

func (v *vtimeChecker) report(p *Package, pos token.Pos, msg string) {
	if v.prog.Analyzed(p) {
		v.diags = append(v.diags, diagAt(p, pos, msg))
	}
}

// funcDisplayOf renders a declaration for diagnostics, falling back to
// the bare name when the object is unavailable.
func funcDisplayOf(p *Package, fn *ast.FuncDecl) string {
	if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
		return funcDisplay(obj)
	}
	return fn.Name.Name
}
