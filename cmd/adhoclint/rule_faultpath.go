package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The fault-soundness analysis (rule "faultpath") classifies every fabric
// interaction by its failure disposition and checks that the disposition
// is either evident from the code or declared with an
// //adhoclint:faultpath(disposition, reason) directive. Deterministic
// fault injection (simnet.FaultPlan) makes every Call/Send/Transfer
// fallible; this rule makes the tree say, site by site, what happens when
// one fails:
//
//   - a fabric call whose error is discarded is a fire-and-forget
//     notification and must say so: //adhoclint:faultpath(fire-and-forget,
//     reason) on the call's line or the line above;
//   - a function that mutates caller-visible state (its receiver, a
//     pointer/map/slice argument, or anything derived from them) before a
//     fallible send whose error it propagates must carry a compensation
//     path, declared //adhoclint:faultpath(compensated, reason) on its
//     declaration — otherwise a failure surfaces with the mutation already
//     applied and nobody rolls it back;
//   - every simnet.Parallel fan-out must declare whether one failed branch
//     aborts the whole operation (abort-all) or the survivors' results are
//     kept (collect-partial, with the repair story as the reason);
//   - a method sent with Network.CallRetry is re-delivered after lost
//     replies, and so is a method sent with Network.Forward, whose route
//     its origin re-sends whole; its handler must be read-only — or deduplicate
//     re-deliveries and carry //adhoclint:faultpath(idempotent, reason) on
//     its Method* constant. (CallRetry departs each attempt at the previous
//     one's end itself, so a retry cannot drop FailTimeout from the
//     critical path.)
//
// A function whose writes are harmless when the surrounding operation
// fails — monotone counters and ID allocators, cache fills and
// invalidations, memoized views, deterministic repair — declares
// //adhoclint:faultpath(benign, reason) on its declaration; calls to it do
// not count as mutations for the mutate-before-send and retried-handler
// checks.
//
// Dispositions: fire-and-forget, abort-all, collect-partial, idempotent,
// compensated, benign. All but abort-all require a reason. The rule covers
// internal/ and cmd/ packages except internal/simnet (the fault model
// itself), internal/experiments (drivers own the whole simulated world; an
// aborted run leaves no surviving state to compensate) and cmd/adhoclint.

// The faultpath dispositions.
const (
	dispFireAndForget  = "fire-and-forget"
	dispAbortAll       = "abort-all"
	dispCollectPartial = "collect-partial"
	dispIdempotent     = "idempotent"
	dispCompensated    = "compensated"
	dispBenign         = "benign"
)

var faultDispositions = []string{
	dispFireAndForget, dispAbortAll, dispCollectPartial, dispIdempotent, dispCompensated, dispBenign,
}

// faultArgs splits the "(disposition, reason)" arguments of a faultpath
// directive; the reason may itself contain commas.
func faultArgs(d *directive) (disposition, reason string) {
	disposition, reason, _ = strings.Cut(d.args, ",")
	return strings.TrimSpace(disposition), strings.TrimSpace(reason)
}

// checkFaultPath runs the faultpath rule over the program.
func checkFaultPath(prog *Program) []Diagnostic {
	c := &faultpathChecker{
		prog:    prog,
		touches: prog.FabricReach(false).touches,
		mutates: map[*types.Func]*mutInfo{},
		retried: map[string][]*retrySite{},
	}
	c.computeMutates()
	c.validateDirectives()
	for _, p := range prog.Pkgs {
		if p.Info == nil || !c.inScope(p) {
			continue
		}
		eachFuncDecl(p.Files, func(fn *ast.FuncDecl) {
			c.checkDiscardedErrors(p, fn)
			c.checkMutateBeforeSend(p, fn)
			c.checkParallelSites(p, fn)
			c.recordRetrySites(p, fn)
		})
	}
	c.checkRetriedHandlers()
	return c.diags
}

type faultpathChecker struct {
	prog    *Program
	touches map[*types.Func]bool // transitively performs a fabric call
	mutates map[*types.Func]*mutInfo
	retried map[string][]*retrySite // method wire string → CallRetry sites
	diags   []Diagnostic
}

// mutInfo records how a function mutates caller-visible state: a direct
// write, or a call into another mutating function.
type mutInfo struct {
	pos token.Pos
	via *types.Func // nil when the write is direct
}

// retrySite is one CallRetry of a method.
type retrySite struct {
	pkg  *Package
	pos  token.Pos
	encl *types.Func
}

// inScope limits the rule to internal/ and cmd/ packages, excluding the
// fault model itself, the experiment drivers and the linter.
func (c *faultpathChecker) inScope(p *Package) bool {
	for _, rel := range []string{"internal/simnet", "internal/experiments", "cmd/adhoclint"} {
		if p.ImportPath == c.prog.modPath+"/"+rel {
			return false
		}
	}
	return internalPackage(p) || cmdPackage(p, c.prog.modPath)
}

// computeMutates closes "mutates caller-visible state" over static calls.
// Functions declared faultpath(benign, ...) are excluded: their writes are
// harmless when the surrounding operation fails.
func (c *faultpathChecker) computeMutates() {
	for changed := true; changed; {
		changed = false
		for _, d := range c.prog.Funcs().sorted {
			if c.mutates[d.obj] != nil || c.funcDisposition(d.pkg, d.decl) == dispBenign {
				continue
			}
			if m := c.firstMutation(d.pkg, d.decl.Body, c.declTaint(d.pkg, d.decl)); m != nil {
				c.mutates[d.obj] = m
				changed = true
			}
		}
	}
}

// declTaint seeds the caller-visible roots of a declaration: the receiver
// and every parameter of pointer, map or slice type.
func (c *faultpathChecker) declTaint(p *Package, fn *ast.FuncDecl) map[types.Object]bool {
	taint := map[types.Object]bool{}
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					taint[obj] = true
				}
			}
		}
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Map, *types.Slice:
				taint[obj] = true
			}
		}
	}
	return taint
}

// firstMutation finds the earliest write to caller-visible state inside
// body: a direct assignment/delete through a tainted root, or a call into
// a mutating function on a tainted receiver or argument. Locals derived
// from tainted roots are tainted too; locals built fresh are not.
func (c *faultpathChecker) firstMutation(p *Package, body ast.Node, taint map[types.Object]bool) *mutInfo {
	// Propagate taint through derivations: `node := s.nodes[addr]` makes
	// node an alias of receiver state.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if obj := defOrUse(p.Info, id); obj != nil && !taint[obj] {
						taint[obj] = true
						changed = true
					}
				}
			}
			derived := func(rhs ast.Expr) bool {
				switch unparen(rhs).(type) {
				case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.UnaryExpr:
					obj := exprRootObj(p.Info, rhs)
					return obj != nil && taint[obj]
				}
				return false
			}
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				if derived(asg.Rhs[0]) {
					for _, lhs := range asg.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, lhs := range asg.Lhs {
				if i < len(asg.Rhs) && derived(asg.Rhs[i]) {
					mark(lhs)
				}
			}
			return true
		})
	}

	var first *mutInfo
	record := func(m *mutInfo) {
		if first == nil || m.pos < first.pos {
			first = m
		}
	}
	rootTainted := func(e ast.Expr) bool {
		obj := exprRootObj(p.Info, e)
		return obj != nil && taint[obj]
	}
	eachWrite(body, func(lhs ast.Expr, kind writeKind, at ast.Node, _ ast.Expr) {
		switch kind {
		case writeAssign, writeIncDec:
			switch unparen(lhs).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				if rootTainted(lhs) {
					record(&mutInfo{pos: lhs.Pos()})
				}
			}
		case writeDelete:
			if rootTainted(lhs) {
				record(&mutInfo{pos: at.Pos()})
			}
		}
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := staticCallee(p.Info, call)
		if callee == nil || c.mutates[callee] == nil {
			return true
		}
		sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
		hit := isSel && rootTainted(sel.X)
		for _, arg := range call.Args {
			hit = hit || rootTainted(arg)
		}
		if hit {
			record(&mutInfo{pos: call.Pos(), via: callee})
		}
		return true
	})
	return first
}

// mutChain renders how a mutation reaches its write: "via A → B" for
// call-carried mutations, "" for direct writes.
func (c *faultpathChecker) mutChain(m *mutInfo) string {
	if m == nil || m.via == nil {
		return ""
	}
	var chain []string
	for cur := m.via; cur != nil; {
		chain = append(chain, funcDisplay(cur))
		next := c.mutates[cur]
		if next == nil || next.via == nil || len(chain) > witnessMaxHops {
			break
		}
		cur = next.via
	}
	return " (via " + strings.Join(chain, " → ") + ")"
}

// dispositionAt returns the disposition declared by the faultpath
// directive on the position's line or the line directly above ("" when
// there is none) and whether a directive is present at all.
func (c *faultpathChecker) dispositionAt(p *Package, pos token.Pos) (string, bool) {
	if d := c.prog.Directives().at(p, pos, "faultpath"); d != nil {
		disposition, _ := faultArgs(d)
		return disposition, true
	}
	return "", false
}

// funcDisposition returns the disposition declared on a function
// declaration: in its doc comment, or on the line above the declaration.
func (c *faultpathChecker) funcDisposition(p *Package, fn *ast.FuncDecl) string {
	disposition, _ := c.dispositionAt(p, fn.Pos())
	if d := c.prog.Directives().inDoc(p, fn.Doc, "faultpath"); d != nil {
		disposition, _ = faultArgs(d)
	}
	return disposition
}

// validateDirectives reports malformed directives of the analyzed,
// in-scope packages: unknown dispositions and missing reasons. abort-all
// is self-explanatory; every other disposition states a claim the code
// cannot show and must say why it holds.
func (c *faultpathChecker) validateDirectives() {
	for _, d := range c.prog.Directives().named("faultpath") {
		if !c.inScope(d.pkg) {
			continue
		}
		disposition, reason := faultArgs(d)
		known := false
		for _, disp := range faultDispositions {
			if disposition == disp {
				known = true
			}
		}
		if !known {
			c.report(d.pkg, d.pos, fmt.Sprintf(
				"unknown faultpath disposition %q (have: %s)",
				disposition, strings.Join(faultDispositions, ", ")))
			continue
		}
		if reason == "" && disposition != dispAbortAll {
			c.report(d.pkg, d.pos, fmt.Sprintf(
				"faultpath(%s) requires a reason explaining why the disposition is sound", disposition))
		}
	}
}

// checkDiscardedErrors flags fabric calls whose error result is dropped
// without a fire-and-forget declaration.
func (c *faultpathChecker) checkDiscardedErrors(p *Package, fn *ast.FuncDecl) {
	handled := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			rhs, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fc := c.prog.fabricCallAt(p, rhs)
			if fc == nil {
				return true
			}
			handled[rhs] = true
			if fc.errPos() >= len(n.Lhs) || !isBlank(n.Lhs[fc.errPos()]) {
				return true
			}
			call = rhs
		case *ast.ExprStmt:
			rhs, ok := n.X.(*ast.CallExpr)
			if !ok || handled[rhs] || c.prog.fabricCallAt(p, rhs) == nil {
				return true
			}
			call = rhs
		default:
			return true
		}
		fc := c.prog.fabricCallAt(p, call)
		disp, declared := c.dispositionAt(p, call.Pos())
		switch {
		case !declared:
			c.report(p, call.Pos(), fmt.Sprintf(
				"the error of %s of %q is discarded with no declared fault disposition; handle it or annotate //adhoclint:faultpath(fire-and-forget, reason)",
				fc.kind, fc.value))
		case disp != dispFireAndForget:
			c.report(p, call.Pos(), fmt.Sprintf(
				"faultpath(%s) does not cover a discarded error; a deliberately unacknowledged %s needs faultpath(fire-and-forget, reason)",
				disp, fc.kind))
		}
		return true
	})
}

// checkMutateBeforeSend flags functions that mutate caller-visible state
// and afterwards perform a fallible send whose error they propagate,
// without declaring a compensation path. Handlers are exempt: their
// mutation is the operation itself, and the retried-handler check governs
// their re-delivery semantics.
func (c *faultpathChecker) checkMutateBeforeSend(p *Package, fn *ast.FuncDecl) {
	if fn.Name.Name == "HandleCall" || c.prog.handlerShape(p, fn, true) || !returnsError(p, fn) {
		return
	}
	if disp := c.funcDisposition(p, fn); disp == dispCompensated || disp == dispBenign {
		return
	}
	mut := c.firstMutation(p, fn.Body, c.declTaint(p, fn))
	if mut == nil {
		return
	}
	site, desc := c.firstFallibleAfter(p, fn, mut.pos)
	if site == token.NoPos {
		return
	}
	c.report(p, site, fmt.Sprintf(
		"caller-visible state is mutated at line %d%s before this fallible %s; a failure surfaces with the mutation applied — add a compensation path and annotate the function //adhoclint:faultpath(compensated, reason)",
		p.Fset.Position(mut.pos).Line, c.mutChain(mut), desc))
}

// returnsError reports whether the declaration's last result is an error.
func returnsError(p *Package, fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	return isErrorType(p.Info.Types[res.List[len(res.List)-1].Type].Type)
}

// firstFallibleAfter finds the earliest fabric call, or call into a
// fabric-touching module function, after pos whose error the caller
// captures (and can therefore propagate).
func (c *faultpathChecker) firstFallibleAfter(p *Package, fn *ast.FuncDecl, pos token.Pos) (token.Pos, string) {
	best := token.NoPos
	desc := ""
	record := func(at token.Pos, d string) {
		if best == token.NoPos || at < best {
			best, desc = at, d
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) == 0 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || call.Pos() <= pos || isBlank(asg.Lhs[len(asg.Lhs)-1]) {
			return true
		}
		if fc := c.prog.fabricCallAt(p, call); fc != nil {
			record(call.Pos(), fmt.Sprintf("%s of %q", fc.kind, fc.value))
			return true
		}
		callee, _ := staticCallee(p.Info, call)
		if callee != nil && c.touches[callee] && calleeReturnsError(callee) {
			record(call.Pos(), "call to "+funcDisplay(callee))
		}
		return true
	})
	return best, desc
}

// calleeReturnsError reports whether the function's last result is error.
func calleeReturnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

// checkParallelSites requires every simnet.Parallel fan-out to declare
// abort-all or collect-partial.
func (c *faultpathChecker) checkParallelSites(p *Package, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee, _ := staticCallee(p.Info, call); !c.prog.isSimnetFunc(callee, "Parallel") {
			return true
		}
		disp, declared := c.dispositionAt(p, call.Pos())
		switch {
		case !declared:
			c.report(p, call.Pos(),
				"simnet.Parallel fan-out must declare its failure semantics: annotate //adhoclint:faultpath(abort-all) or //adhoclint:faultpath(collect-partial, reason)")
		case disp != dispAbortAll && disp != dispCollectPartial:
			c.report(p, call.Pos(), fmt.Sprintf(
				"faultpath(%s) does not apply to a Parallel fan-out; declare abort-all or collect-partial", disp))
		}
		return true
	})
}

// recordRetrySites records every CallRetry or Forward of a constant method
// for the idempotence cross-check: a Forward's route is re-sent whole by its
// origin after a loss, re-running every handler on it. (A retried Transfer
// runs no handler.)
func (c *faultpathChecker) recordRetrySites(p *Package, fn *ast.FuncDecl) {
	encl, _ := p.Info.Defs[fn.Name].(*types.Func)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fc := c.prog.fabricCallAt(p, call); fc != nil && fc.resent() && fc.value != "" {
			c.retried[fc.value] = append(c.retried[fc.value], &retrySite{pkg: p, pos: call.Pos(), encl: encl})
		}
		return true
	})
}

// checkRetriedHandlers cross-checks every retried method against its
// dispatch handler: a handler that mutates node state is re-run on a lost
// reply, so it must deduplicate and carry an idempotent declaration on
// its Method* constant.
func (c *faultpathChecker) checkRetriedHandlers() {
	if len(c.retried) == 0 {
		return
	}
	constsByValue := map[string]*methodConst{}
	for _, mc := range c.prog.MethodConsts() {
		if _, ok := constsByValue[mc.value]; !ok {
			constsByValue[mc.value] = mc
		}
	}
	caseMuts := c.handlerCaseMutations()

	values := make([]string, 0, len(c.retried))
	for v := range c.retried {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, value := range values {
		mut := caseMuts[value]
		if mut == nil {
			continue // handler unknown or read-only
		}
		mc := constsByValue[value]
		if mc != nil {
			if disp, _ := c.dispositionAt(mc.pkg, mc.pos); disp == dispIdempotent {
				continue
			}
		}
		sites := c.retried[value]
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		site := sites[0]
		from := "a CallRetry site"
		if site.encl != nil {
			from = funcDisplay(site.encl)
		}
		name := value
		if mc != nil {
			name = mc.name
		}
		msg := fmt.Sprintf(
			"%s (%q) is retried from %s but its handler mutates node state%s; deduplicate re-deliveries and annotate the constant //adhoclint:faultpath(idempotent, reason)",
			name, value, from, c.mutChain(mut))
		switch {
		case mc != nil && c.prog.Analyzed(mc.pkg) && c.inScope(mc.pkg):
			c.report(mc.pkg, mc.pos, msg)
		default:
			c.report(site.pkg, site.pos, msg)
		}
	}
}

// handlerCaseMutations maps each dispatched method wire string to the
// mutation its handler case performs (nil for read-only cases). A method
// dispatched by several handlers keeps the first mutation found.
func (c *faultpathChecker) handlerCaseMutations() map[string]*mutInfo {
	out := map[string]*mutInfo{}
	for _, h := range c.prog.Handlers() {
		for _, dc := range h.cases {
			body := &ast.BlockStmt{List: dc.clause.Body}
			mut := c.firstMutation(h.node.pkg, body, c.declTaint(h.node.pkg, h.node.decl))
			for _, v := range dc.values {
				if out[v.value] == nil {
					out[v.value] = mut
				}
			}
		}
	}
	return out
}

func (c *faultpathChecker) report(p *Package, pos token.Pos, msg string) {
	if c.prog.Analyzed(p) {
		c.diags = append(c.diags, diagAt(p, pos, msg))
	}
}
