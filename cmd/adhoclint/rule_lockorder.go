package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// The lock-order analysis infers, across the whole analyzed program, the
// partial order in which convention-named mutexes are acquired — directly
// and transitively through statically resolvable calls — and reports:
//
//   - cycles in that order (potential deadlocks), with witness call chains;
//   - same-mutex re-acquisition while the mutex is already held, both
//     directly and by calling a same-receiver method that locks again;
//
// and, under the lock-blocking rule id, upgrades PR 1's intraprocedural
// check: a call made while a mutex is held is flagged when the callee
// transitively performs a blocking operation (simnet fabric call, channel
// operation, sleep or wait), with the call chain to the blocking site.

// acqStep records how a function (transitively) acquires a mutex class:
// directly at pos (via == nil), or by calling via at pos.
type acqStep struct {
	via   *types.Func
	pos   token.Pos
	write bool
}

// blkStep records how a function (transitively) reaches a blocking
// operation.
type blkStep struct {
	via  *types.Func
	pos  token.Pos
	desc string
}

// lockSummary is the per-function fact set the fixpoint computes.
type lockSummary struct {
	node     *funcNode
	locks    *lockFacts
	recvName string
	// acquires maps every mutex class the function may lock — directly or
	// through calls — to one witness step.
	acquires map[lockClass]acqStep
	// block is set when the function may perform a blocking operation.
	block *blkStep
	// recvMu is set when the function locks its own receiver's mu,
	// directly or via a same-receiver method call.
	recvMu *acqStep
}

// lockSummaries computes direct lock/block facts per analyzed function and
// closes them over the call graph.
func lockSummaries(prog *Program) map[*types.Func]*lockSummary {
	sums := map[*types.Func]*lockSummary{}
	var order []*lockSummary
	for _, node := range prog.Funcs().sorted {
		if !node.analyzed {
			continue
		}
		s := &lockSummary{
			node:     node,
			locks:    prog.LockFacts(node.pkg, node.decl),
			recvName: recvName(node.decl),
			acquires: map[lockClass]acqStep{},
		}
		for _, e := range s.locks.events {
			if !e.lock || !e.conv {
				continue
			}
			if e.class != "" {
				if old, ok := s.acquires[e.class]; !ok || (e.write && !old.write) {
					s.acquires[e.class] = acqStep{pos: e.pos, write: e.write}
				}
			}
			if s.recvName != "" && e.owner == s.recvName+".mu" {
				if s.recvMu == nil || (e.write && !s.recvMu.write) {
					s.recvMu = &acqStep{pos: e.pos, write: e.write}
				}
			}
		}
		s.block = directBlock(node.decl)
		sums[node.obj] = s
		order = append(order, s)
	}
	for changed := true; changed; {
		changed = false
		for _, s := range order {
			for _, c := range s.node.calls {
				g, ok := sums[c.callee]
				if !ok {
					continue
				}
				for cl, step := range g.acquires {
					if _, have := s.acquires[cl]; !have {
						s.acquires[cl] = acqStep{via: c.callee, pos: c.call.Pos(), write: step.write}
						changed = true
					}
				}
				if s.block == nil && g.block != nil {
					s.block = &blkStep{via: c.callee, pos: c.call.Pos(), desc: g.block.desc}
					changed = true
				}
				if s.recvMu == nil && s.recvName != "" && c.recv == s.recvName && g.recvMu != nil {
					s.recvMu = &acqStep{via: c.callee, pos: c.call.Pos(), write: g.recvMu.write}
					changed = true
				}
			}
		}
	}
	return sums
}

// directBlock finds the first potentially blocking operation lexically in
// the body: a channel operation, a select, or a call whose selector name
// is one of the blocking fabric/clock operations.
func directBlock(fn *ast.FuncDecl) *blkStep {
	var b *blkStep
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if b != nil {
			return false
		}
		if desc := blockingOp(n); desc != "" {
			b = &blkStep{pos: n.Pos(), desc: desc}
		}
		return true
	})
	return b
}

// lockEdge is one observed "from held while to acquired" fact with its
// first witness.
type lockEdge struct {
	from, to lockClass
	fn       *types.Func
	pkg      *Package
	pos      token.Pos   // the nested lock (via == nil) or the call
	via      *types.Func // callee through which `to` is reached
}

// lockFindings are the diagnostics of the one whole-program lock walk,
// split by the rule they belong to.
type lockFindings struct {
	order    []Diagnostic // lock-order
	blocking []Diagnostic // the interprocedural half of lock-blocking
}

func checkLockOrder(prog *Program) []Diagnostic { return prog.LockFindings().order }

// LockFindings runs (on first use) the whole-program lock analysis.
func (prog *Program) LockFindings() *lockFindings {
	if prog.lockFinds != nil {
		return prog.lockFinds
	}
	out := &lockFindings{}
	prog.lockFinds = out
	sums := lockSummaries(prog)

	edges := map[[2]lockClass]*lockEdge{}
	addEdge := func(e *lockEdge) {
		key := [2]lockClass{e.from, e.to}
		if _, ok := edges[key]; !ok {
			edges[key] = e
		}
	}

	for _, node := range prog.Funcs().sorted {
		s := sums[node.obj]
		if s == nil {
			continue
		}
		p, obj := node.pkg, node.obj
		fnName := node.decl.Name.Name
		for _, r := range s.locks.regions {
			if !r.conv {
				continue
			}
			from := r.class
			for _, e := range s.locks.events {
				if !e.lock || !e.conv || e.pos == r.start || !r.contains(e.pos) {
					continue
				}
				if e.owner == r.owner {
					// Same mutex re-locked while held: deadlock unless both
					// sides are read locks.
					if r.write || e.write {
						out.order = append(out.order, diagAt(p, e.pos,
							fmt.Sprintf("%s acquired again in %s while already held (self-deadlock)", e.owner, fnName)))
					}
					continue
				}
				if from == "" || e.class == "" || from == e.class {
					continue
				}
				addEdge(&lockEdge{from: from, to: e.class, fn: obj, pkg: p, pos: e.pos})
			}
			for _, c := range node.calls {
				if !r.contains(c.call.Pos()) {
					continue
				}
				g, ok := sums[c.callee]
				if !ok {
					continue
				}
				if g.block != nil {
					// The intraprocedural check already flags calls whose own
					// selector name is blocking; only report callees that
					// block somewhere beneath the call.
					if _, direct := blockingCalls[c.callee.Name()]; !direct {
						chain, bpos := blockChain(sums, c.callee)
						out.blocking = append(out.blocking, diagAt(p, c.call.Pos(),
							fmt.Sprintf("call to %s may block (%s%s) while %s is held in %s",
								chain, g.blockDesc(sums), posSuffix(p, bpos), r.owner, fnName)))
					}
				}
				if g.recvMu != nil && c.recv != "" &&
					c.recv == ownerBase(r.owner) && (r.write || g.recvMu.write) {
					chain, lpos := recvMuChain(sums, c.callee)
					out.order = append(out.order, diagAt(p, c.call.Pos(),
						fmt.Sprintf("%s holds %s and calls %s, which locks it again%s (recursive acquisition deadlock)",
							fnName, r.owner, chain, posSuffix(p, lpos))))
				}
				if from != "" {
					classes := make([]lockClass, 0, len(g.acquires))
					for cl := range g.acquires {
						classes = append(classes, cl)
					}
					sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
					for _, cl := range classes {
						if cl == from {
							continue // same class via a call: instance identity unknown
						}
						addEdge(&lockEdge{from: from, to: cl, fn: obj, pkg: p, pos: c.call.Pos(), via: c.callee})
					}
				}
			}
		}
	}
	out.order = append(out.order, lockCycleDiags(sums, edges)...)
	return out
}

// blockDesc returns the human description of the function's (transitive)
// blocking operation.
func (s *lockSummary) blockDesc(sums map[*types.Func]*lockSummary) string {
	cur := s
	for cur.block != nil && cur.block.via != nil {
		next, ok := sums[cur.block.via]
		if !ok {
			break
		}
		cur = next
	}
	if cur.block != nil {
		return cur.block.desc
	}
	return "blocking operation"
}

// blockChain renders the call chain from fn to its blocking operation and
// returns the blocking position.
func blockChain(sums map[*types.Func]*lockSummary, fn *types.Func) (string, token.Pos) {
	parts := []string{funcDisplay(fn)}
	cur := fn
	for {
		s, ok := sums[cur]
		if !ok || s.block == nil {
			return strings.Join(parts, " → "), token.NoPos
		}
		if s.block.via == nil {
			return strings.Join(parts, " → "), s.block.pos
		}
		cur = s.block.via
		parts = append(parts, funcDisplay(cur))
	}
}

// recvMuChain renders the same-receiver chain from fn to the re-acquiring
// lock and returns the lock position.
func recvMuChain(sums map[*types.Func]*lockSummary, fn *types.Func) (string, token.Pos) {
	parts := []string{funcDisplay(fn)}
	cur := fn
	for {
		s, ok := sums[cur]
		if !ok || s.recvMu == nil {
			return strings.Join(parts, " → "), token.NoPos
		}
		if s.recvMu.via == nil {
			return strings.Join(parts, " → "), s.recvMu.pos
		}
		cur = s.recvMu.via
		parts = append(parts, funcDisplay(cur))
	}
}

// acqChain renders the call chain from fn to its acquisition of class cl
// and returns the lock position.
func acqChain(sums map[*types.Func]*lockSummary, fn *types.Func, cl lockClass) (string, token.Pos) {
	parts := []string{funcDisplay(fn)}
	cur := fn
	for {
		s, ok := sums[cur]
		if !ok {
			return strings.Join(parts, " → "), token.NoPos
		}
		step, ok := s.acquires[cl]
		if !ok {
			return strings.Join(parts, " → "), token.NoPos
		}
		if step.via == nil {
			return strings.Join(parts, " → "), step.pos
		}
		cur = step.via
		parts = append(parts, funcDisplay(cur))
	}
}

// posSuffix renders " at file:line" for a known position.
func posSuffix(p *Package, pos token.Pos) string {
	if pos == token.NoPos {
		return ""
	}
	position := p.Fset.Position(pos)
	return fmt.Sprintf(" at %s:%d", filepath.Base(position.Filename), position.Line)
}

// ownerBase strips the trailing ".mu" of a region owner ("s.mu" → "s").
func ownerBase(owner string) string {
	return strings.TrimSuffix(owner, ".mu")
}

// lockCycleDiags finds cycles in the acquired-while-held digraph and
// reports each strongly connected component once, with the witness for
// every edge of one representative cycle.
func lockCycleDiags(sums map[*types.Func]*lockSummary, edges map[[2]lockClass]*lockEdge) []Diagnostic {
	adj := map[lockClass][]lockClass{}
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for from := range adj {
		sort.Slice(adj[from], func(i, j int) bool { return adj[from][i] < adj[from][j] })
	}
	sccs := stronglyConnected(adj)

	var diags []Diagnostic
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		cycle := findCycle(adj, scc)
		if cycle == nil {
			continue
		}
		names := make([]string, 0, len(cycle)+1)
		for _, c := range cycle {
			names = append(names, shortClass(c))
		}
		names = append(names, shortClass(cycle[0]))
		var witnesses []string
		var first *lockEdge
		for i := range cycle {
			e := edges[[2]lockClass{cycle[i], cycle[(i+1)%len(cycle)]}]
			if e == nil {
				continue
			}
			if first == nil {
				first = e
			}
			witnesses = append(witnesses, renderEdgeWitness(sums, e))
		}
		if first == nil {
			continue
		}
		diags = append(diags, diagAt(first.pkg, first.pos,
			fmt.Sprintf("lock-order cycle (potential deadlock): %s — %s",
				strings.Join(names, " → "), strings.Join(witnesses, "; "))))
	}
	return diags
}

// renderEdgeWitness explains one acquired-while-held edge.
func renderEdgeWitness(sums map[*types.Func]*lockSummary, e *lockEdge) string {
	at := posSuffix(e.pkg, e.pos)
	if e.via == nil {
		return fmt.Sprintf("%s locks %s while holding %s%s",
			funcDisplay(e.fn), shortClass(e.to), shortClass(e.from), at)
	}
	chain, lpos := acqChain(sums, e.via, e.to)
	return fmt.Sprintf("%s%s calls %s, which locks %s%s",
		funcDisplay(e.fn), at, chain, shortClass(e.to), posSuffix(e.pkg, lpos))
}

// stronglyConnected computes SCCs of the class digraph (iterative Tarjan).
func stronglyConnected(adj map[lockClass][]lockClass) [][]lockClass {
	nodes := make([]lockClass, 0, len(adj))
	seen := map[lockClass]bool{}
	for from, tos := range adj {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for _, to := range tos {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	index := map[lockClass]int{}
	low := map[lockClass]int{}
	onStack := map[lockClass]bool{}
	var stack []lockClass
	var sccs [][]lockClass
	next := 0

	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}

// findCycle returns one cycle through the SCC starting (and ending) at its
// smallest class.
func findCycle(adj map[lockClass][]lockClass, scc []lockClass) []lockClass {
	in := map[lockClass]bool{}
	for _, c := range scc {
		in[c] = true
	}
	start := scc[0]
	var path []lockClass
	visited := map[lockClass]bool{}
	var dfs func(v lockClass) bool
	dfs = func(v lockClass) bool {
		path = append(path, v)
		visited[v] = true
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start && len(path) > 1 {
				return true
			}
			if !visited[w] {
				if dfs(w) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
