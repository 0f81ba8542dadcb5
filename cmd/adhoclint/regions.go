package main

import (
	"go/ast"
	"go/token"
)

// muRegion is a span of a function body during which a mutex is held.
// Owner is the source rendering of the mutex expression ("s.mu", "c.mu",
// "n.seqMu", ...).
type muRegion struct {
	owner      string
	start, end token.Pos
	write      bool // opened by Lock (vs RLock)
}

func (r muRegion) contains(p token.Pos) bool { return r.start <= p && p <= r.end }

// muEvent is one Lock/Unlock call found in a body.
type muEvent struct {
	pos      token.Pos
	owner    string
	lock     bool // Lock or RLock (vs Unlock or RUnlock)
	write    bool // Lock or Unlock (vs RLock or RUnlock)
	deferred bool
	block    ast.Node // innermost enclosing block-like node
}

// exprChain renders a selector chain of plain identifiers ("s", "n.table").
func exprChain(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprChain(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// muEvents collects every Lock/RLock/Unlock/RUnlock call on a selector
// chain in the function body, with the enclosing block-like node and defer
// context of each.
func muEvents(fn *ast.FuncDecl) []*muEvent {
	var events []*muEvent
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
			return true
		}
		owner, ok := exprChain(sel.X)
		if !ok {
			return true
		}
		e := &muEvent{
			pos:   call.Pos(),
			owner: owner,
			lock:  name == "Lock" || name == "RLock",
			write: name == "Lock" || name == "Unlock",
		}
		for i := len(stack) - 2; i >= 0; i-- {
			if d, isDefer := stack[i].(*ast.DeferStmt); isDefer && d.Call == call {
				e.deferred = true
			}
			if e.block == nil {
				switch stack[i].(type) {
				case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
					e.block = stack[i]
				}
			}
		}
		events = append(events, e)
		return true
	})
	return events
}

// lockFacts are the lock events and held-lock spans of one function body.
type lockFacts struct {
	events  []*muEvent
	regions []muRegion
}

// LockFacts returns (deriving on first use) the lock events and held-lock
// spans of one function body.
//
// The region heuristic mirrors how the codebase writes critical sections:
// a Lock opens a region that ends at the first non-deferred Unlock of the
// same mutex in the same block; if the Unlock is deferred, the region runs
// to the end of the function; with neither (early-return unlocks inside
// nested branches only), the region runs to the end of the Lock's own
// block — erring on the side of "still locked", which keeps the
// guarded-field rule permissive.
func (prog *Program) LockFacts(fn *ast.FuncDecl) *lockFacts {
	if lf, ok := prog.locks[fn]; ok {
		return lf
	}
	lf := &lockFacts{events: muEvents(fn)}
	for _, e := range lf.events {
		if !e.lock || e.deferred {
			continue
		}
		end, deferred := token.NoPos, false
		for _, u := range lf.events {
			if u.lock || u.pos <= e.pos || u.owner != e.owner {
				continue
			}
			if u.deferred {
				deferred = true
			} else if u.block == e.block {
				end = u.pos
				break
			}
		}
		switch {
		case end != token.NoPos:
		case deferred || e.block == nil:
			end = fn.Body.End()
		default:
			end = e.block.End()
		}
		lf.regions = append(lf.regions, muRegion{
			owner: e.owner, start: e.pos, end: end, write: e.write,
		})
	}
	if prog.locks == nil {
		prog.locks = map[*ast.FuncDecl]*lockFacts{}
	}
	prog.locks[fn] = lf
	return lf
}

// holds reports whether a region of the named owner contains pos — opened
// by Lock when write is set.
func (lf *lockFacts) holds(pos token.Pos, owner string, write bool) bool {
	for _, r := range lf.regions {
		if r.owner == owner && (r.write || !write) && r.contains(pos) {
			return true
		}
	}
	return false
}
