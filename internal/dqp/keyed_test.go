package dqp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/testutil"
)

// The keyed sub-query against its reference. A case is a dataset spread
// over providers with overlap, a pattern that produced the partial
// solutions so far (zero = the unit seed), the pattern asked next, an
// optional pushed filter over the asked pattern's variables and an optional
// GRAPH scope. The engine's side — project the keys, ask every provider,
// accumulate, join — must return what one evaluator over the union of all
// providers returns for EvalBGP(union, pattern, seeds) — whichever providers
// were sent the keys and whichever the unit key in their place: unit is that
// choice as a mask, and the case must hold with every provider keyed, with
// none, and under the mask, for the basic strategy's per-target choice and
// the chains' per-pattern one. (The fuzz target keeps this file out of
// internal/overlay, whose TestMain counts the fuzz coordinator's goroutine
// as a leak.)

// Graph names double as node IRIs, so a GRAPH variable can occur in a
// pattern and match.
var (
	keyedNodes  = []rdf.Term{ex("n0"), ex("n1"), ex("n2"), ex("n3"), ex("n4")}
	keyedPreds  = []rdf.Term{fp("p0"), fp("p1"), fp("p2")}
	keyedGraphs = []string{keyedNodes[0].Value, keyedNodes[1].Value}
)

// keyedTriple is one triple, the providers holding it (bit i = provider i)
// and where they hold it: 0 the default graph, i the named graph i-1.
type keyedTriple struct {
	t       rdf.Triple
	holders uint8
	graph   int
}

type keyedCase struct {
	providers int
	triples   []keyedTriple
	seedPat   rdf.Triple
	pat       rdf.Triple
	filter    sparql.Expression
	scope     rdf.Term
	unit      uint8 // bit i = provider i gets the unit key
}

func (c keyedCase) String() string {
	return fmt.Sprintf("%d providers, %d triples, seeds from %v, pattern %v, filter %v, scope %v, unit-key mask %04b",
		c.providers, len(c.triples), c.seedPat, c.pat, c.filter, c.scope, c.unit)
}

// deploy builds the providers of a case; no index ring is needed to answer
// a sub-query.
func (c keyedCase) deploy() []*overlay.StorageNode {
	net := simnet.New(simnet.Config{})
	nodes := make([]*overlay.StorageNode, c.providers)
	for i := range nodes {
		nodes[i] = overlay.NewStorageNode(net, simnet.Addr(fmt.Sprintf("D%d", i)), "")
	}
	for _, kt := range c.triples {
		for i, n := range nodes {
			if kt.holders&(1<<i) == 0 {
				continue
			}
			if kt.graph == 0 {
				n.Graph.Add(kt.t)
			} else {
				n.NamedGraph(keyedGraphs[kt.graph-1]).Add(kt.t)
			}
		}
	}
	return nodes
}

// reference evaluates patterns over the union of all providers in the
// case's scope, extending seeds: the default scope sees every triple
// anywhere, GRAPH <iri> the union of that named graph, GRAPH ?g each named
// graph in sorted order with ?g bound to (or checked against) its name.
func (c keyedCase) reference(pats []rdf.Triple, seeds eval.Solutions) eval.Solutions {
	all, named := rdf.NewGraph(), map[string]*rdf.Graph{}
	for _, kt := range c.triples {
		if kt.holders&(1<<c.providers-1) == 0 {
			continue
		}
		all.Add(kt.t)
		if kt.graph > 0 {
			name := keyedGraphs[kt.graph-1]
			if named[name] == nil {
				named[name] = rdf.NewGraph()
			}
			named[name].Add(kt.t)
		}
	}
	switch {
	case c.scope.IsZero():
		return eval.EvalBGP(all, pats, seeds)
	case !c.scope.IsVar():
		if g := named[c.scope.Value]; g != nil {
			return eval.EvalBGP(g, pats, seeds)
		}
		return nil
	}
	var out eval.Solutions
	for _, name := range keyedGraphs {
		g := named[name]
		if g == nil {
			continue
		}
		for _, b := range eval.EvalBGP(g, pats, seeds) {
			if old, ok := b[c.scope.Value]; ok && old != rdf.NewIRI(name) {
				continue
			}
			nb := b.Clone()
			nb[c.scope.Value] = rdf.NewIRI(name)
			out = append(out, nb)
		}
	}
	return out
}

// run is the engine's side of one pattern execution over the providers.
// The mask reaches the engine's own rule the way the choice reaches it in a
// deployment, through the location-table frequencies: a provider the table
// says matches nothing cannot be worth the keys, one it says matches a
// thousand triples is worth any keys a case can produce. Neither count is
// true, and the answer may not depend on that.
func (c keyedCase) run(t *testing.T, nodes []*overlay.StorageNode, seeds eval.Table, mask uint8, chain bool) eval.Solutions {
	t.Helper()
	plan := patternPlan{pattern: c.pat}
	for i, n := range nodes {
		p := overlay.Posting{Node: n.Addr(), Freq: 1 << 10}
		if mask&(1<<i) != 0 {
			p.Freq = 0
		}
		plan.postings = append(plan.postings, p)
	}
	keys, unit, rowsKeys := projectKeys(plan, c.scope, seeds, chain)
	for i := range nodes {
		switch {
		case len(keys.Vars) == 0 && unit.has(i):
			t.Fatalf("%v: the keys are the unit key, yet provider %d has them replaced", c, i)
		case chain && unit.has(i) != unit.has(0):
			t.Fatalf("%v: a chain's keys ride every hop, yet its providers are split %v", c, unit)
		case !chain && len(keys.Vars) > 0 && unit.has(i) != (mask&(1<<i) != 0):
			t.Fatalf("%v: provider %d is listed with %d matches, unit key %v", c, i, plan.postings[i].Freq, unit.has(i))
		}
	}
	if err := testutil.CheckWire(keys); err != nil {
		t.Fatalf("%v: the keys %v", c, err)
	}
	acc := eval.NewMatches(keys, matchBound(plan, keys, unit))
	for i, n := range nodes {
		sent := keys
		if unit.has(i) {
			sent = eval.Table{N: 1}
		}
		reply := n.MatchKeys(c.pat, c.filter, sent, nil, nil, c.scope)
		if err := testutil.CheckWire(reply); err != nil {
			t.Fatalf("%v: provider %d's reply %v", c, i, err)
		}
		acc.Add(reply)
	}
	return patternMatches{acc: acc, seeds: seeds, rowsKeys: rowsKeys}.result().rows.Solutions()
}

// flat lays mappings binding the same variables out as a table.
func flat(rows eval.Solutions) eval.Table {
	var vars []string
	for v := range rows[0] {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var cells []rdf.Term
	for _, b := range rows {
		for _, v := range vars {
			cells = append(cells, b[v])
		}
	}
	return eval.TableOf(vars, cells)
}

func sortedKeys(s eval.Solutions) []string {
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = b.Key()
	}
	sort.Strings(out)
	return out
}

// check holds one case to its reference as a multiset and to itself as a
// sequence across two fresh deployments, under every choice of who gets the
// keys: all providers, none, the case's mask; per target and per pattern.
func (c keyedCase) check(t *testing.T) {
	t.Helper()
	for _, mask := range []uint8{0, 0xff, c.unit} {
		c.unit = mask
		c.checkMask(t, false)
		c.checkMask(t, true)
	}
}

func (c keyedCase) checkMask(t *testing.T, chain bool) {
	t.Helper()
	seeds := eval.Solutions{eval.NewBinding()}
	if c.seedPat != (rdf.Triple{}) {
		seeds = eval.Distinct(c.reference([]rdf.Triple{c.seedPat}, seeds))
	}
	if len(seeds) == 0 {
		return // the conjunction is empty already; the engine asks nothing
	}
	want := eval.FilterSolutions(c.reference([]rdf.Triple{c.pat}, seeds), c.filter)
	got := c.run(t, c.deploy(), flat(seeds), c.unit, chain)
	gotKeys, wantKeys := sortedKeys(got), sortedKeys(want)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%v, chain %v:\n got %d rows %v\nwant %d rows %v", c, chain, len(got), got, len(want), want)
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("%v, chain %v:\n got %v\nwant %v", c, chain, got, want)
		}
	}
	again := c.run(t, c.deploy(), flat(seeds), c.unit, chain)
	if len(again) != len(got) {
		t.Fatalf("%v: a second deployment returns %d rows, the first %d", c, len(again), len(got))
	}
	for i := range got {
		if !got[i].Equal(again[i]) {
			t.Fatalf("%v: row %d is %v on one deployment and %v on another", c, i, got[i], again[i])
		}
	}
}

// randomKeyedTriples spreads 5–40 triples over the providers; a third are
// held by more than one.
func randomKeyedTriples(rng *rand.Rand, providers int) []keyedTriple {
	out := make([]keyedTriple, 5+rng.Intn(36))
	for i := range out {
		out[i] = keyedTriple{
			t: rdf.Triple{S: keyedNodes[rng.Intn(len(keyedNodes))], P: keyedPreds[rng.Intn(len(keyedPreds))],
				O: keyedNodes[rng.Intn(len(keyedNodes))]},
			holders: 1 << rng.Intn(providers),
			graph:   rng.Intn(3),
		}
		if rng.Intn(3) == 0 {
			out[i].holders |= uint8(1 + rng.Intn(1<<providers-1))
		}
	}
	return out
}

func TestKeyedMatchEqualsSeededMatch(t *testing.T) {
	x, y, z, u, g := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z"), rdf.NewVar("u"), rdf.NewVar("g")
	p0, p1, n1, n2 := keyedPreds[0], keyedPreds[1], keyedNodes[1], keyedNodes[2]
	xKnowsY := rdf.Triple{S: x, P: p0, O: y}
	notN2 := func(v string) sparql.Expression {
		return &sparql.ExprCmp{Op: sparql.CmpNeq, Left: &sparql.ExprVar{Name: v}, Right: &sparql.ExprTerm{Term: n2}}
	}
	shapes := []struct {
		name         string
		seedPat, pat rdf.Triple
		filter       sparql.Expression
		scope        rdf.Term
	}{
		{name: "unit seed", pat: rdf.Triple{S: x, P: p1, O: y}},
		{name: "unit seed, repeated variable", pat: rdf.Triple{S: x, P: p0, O: x}},
		{name: "unit seed, all variables", pat: rdf.Triple{S: x, P: y, O: z}},
		{name: "one shared variable", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: z}},
		{name: "shared variable repeated", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p0, O: y}},
		{name: "new variable repeated", seedPat: xKnowsY, pat: rdf.Triple{S: z, P: y, O: z}},
		{name: "fully ground", seedPat: xKnowsY, pat: rdf.Triple{S: n1, P: p0, O: n2}},
		{name: "ground after substitution", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: n2}},
		{name: "no shared variable", seedPat: xKnowsY, pat: rdf.Triple{S: z, P: p1, O: u}},
		{name: "identity projection", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: x}},
		{name: "identity projection plus a variable", seedPat: rdf.Triple{S: x, P: p0, O: n1}, pat: rdf.Triple{S: x, P: p1, O: z}},
		{name: "filter over an earlier variable", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: z}, filter: notN2("y")},
		{name: "filter over a new variable", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: z}, filter: notN2("z")},
		{name: "GRAPH ?g, unit seed", pat: rdf.Triple{S: x, P: p1, O: y}, scope: g},
		{name: "GRAPH ?g, seeds bind it", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: z}, scope: g},
		{name: "GRAPH ?g in the pattern", seedPat: xKnowsY, pat: rdf.Triple{S: g, P: p1, O: z}, scope: g},
		{name: "GRAPH ?g only in the pattern", pat: rdf.Triple{S: g, P: p0, O: z}, scope: g, filter: notN2("z")},
		{name: "GRAPH <iri>", seedPat: xKnowsY, pat: rdf.Triple{S: y, P: p1, O: z}, scope: rdf.NewIRI(keyedGraphs[0])},
		{name: "GRAPH <iri> nobody holds", pat: rdf.Triple{S: x, P: p1, O: z}, scope: ex("absent")},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := keyedCase{providers: 1 + rng.Intn(4), seedPat: sh.seedPat, pat: sh.pat, filter: sh.filter, scope: sh.scope,
					unit: uint8(rng.Intn(16))}
				c.triples = randomKeyedTriples(rng, c.providers)
				c.check(t)
			}
		})
	}
}

// The rule itself, at its threshold: a target is sent the keys exactly when
// they are smaller than its listed matches times the estimated reply row,
// and a chain exactly when a copy per hop is smaller than the rows the unit
// key would carry, each target's once per hop after it.
func TestUnitKeyedAtTheThreshold(t *testing.T) {
	var seeds eval.Solutions
	for i := 0; i < 12; i++ {
		seeds = append(seeds, eval.Binding{"x": ex(fmt.Sprintf("person%02d", i)), "w": ex("elsewhere")})
	}
	plan := patternPlan{pattern: rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("y")}}
	keys := eval.KeyTable(flat(seeds), []string{"x"})
	cost, row := keys.SizeBytes(), keys.RowEstimate(plan.pattern.Vars())
	if want := 2*1 + 2*ex("person00").SizeBytes(); row != want { // per cell a 1-byte index and the term
		t.Fatalf("a reply row over ?x ?y is estimated at %d B, want %d", row, want)
	}
	even := cost / row // the most matches the keys do not pay for
	plan.postings = []overlay.Posting{{Node: "D0", Freq: even}, {Node: "D1", Freq: even + 1}, {Node: "D2", Freq: 0}}
	if unit := unitKeyed(keys, plan, rdf.Term{}, false); !slices.Equal(unit, unitMask{true, false, true}) {
		t.Errorf("keys of %d B, rows of %d B, frequencies %d, %d and 0: unit key sent %v", cost, row, even, even+1, unit)
	}
	if _, unit, rowsKeys := projectKeys(plan, rdf.Term{}, flat(seeds), false); rowsKeys || !slices.Equal(unit, unitMask{true, false, true}) {
		t.Errorf("seeds binding ?w too: unit key sent %v, replies taken for the result %v", unit, rowsKeys)
	}
	// Three hops carry three copies of the keys; under the unit key D0's
	// rows ride two hops, D1's one, D2's none.
	for _, c := range []struct {
		freqs []int
		unit  bool
	}{
		{[]int{0, 3*even + 3, 1 << 20}, false},
		{[]int{0, 3 * even, 1 << 20}, true},
		{[]int{even + 1, even + 1, 0}, false},
		{[]int{even, even, 0}, true},
	} {
		for i, f := range c.freqs {
			plan.postings[i].Freq = f
		}
		if unit := unitKeyed(keys, plan, rdf.Term{}, true); !slices.Equal(unit, unitMask{c.unit, c.unit, c.unit}) {
			t.Errorf("chain over frequencies %v, keys of %d B, rows of %d B: unit key sent %v, want %v", c.freqs, cost, row, unit, c.unit)
		}
	}
	if unit := unitKeyed(eval.Table{N: 1}, plan, rdf.Term{}, false); slices.Contains(unit, true) {
		t.Errorf("the unit key has nothing to be replaced by, yet: %v", unit)
	}
}

// decodeKeyedCase reads a case off fuzz input; exhausted input reads as
// zeros.
func decodeKeyedCase(data []byte) keyedCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z"), rdf.NewVar("g")}
	term := func(consts []rdf.Term) rdf.Term {
		b := next()
		if b%2 == 0 {
			return vars[b/2%len(vars)]
		}
		return consts[b/2%len(consts)]
	}
	pattern := func() rdf.Triple {
		return rdf.Triple{S: term(keyedNodes), P: term(keyedPreds), O: term(keyedNodes)}
	}
	c := keyedCase{providers: 1 + next()%4}
	if next()%4 > 0 {
		c.seedPat = pattern()
	}
	c.pat = pattern()
	switch next() % 4 {
	case 1:
		c.scope = vars[3]
	case 2:
		c.scope = rdf.NewIRI(keyedGraphs[next()%len(keyedGraphs)])
	}
	covered := c.pat.Vars()
	if c.scope.IsVar() && !slices.Contains(covered, c.scope.Value) {
		covered = append(covered, c.scope.Value)
	}
	if b := next(); b%3 > 0 && len(covered) > 0 {
		c.filter = &sparql.ExprCmp{Op: sparql.CmpOp(b % 2), // CmpEq or CmpNeq
			Left:  &sparql.ExprVar{Name: covered[next()%len(covered)]},
			Right: &sparql.ExprTerm{Term: keyedNodes[next()%len(keyedNodes)]}}
	}
	for n := next() % 48; n > 0; n-- {
		c.triples = append(c.triples, keyedTriple{
			t: rdf.Triple{S: keyedNodes[next()%len(keyedNodes)], P: keyedPreds[next()%len(keyedPreds)],
				O: keyedNodes[next()%len(keyedNodes)]},
			holders: uint8(next()),
			graph:   next() % 3,
		})
	}
	c.unit = uint8(next())
	return c
}

// FuzzKeyedMatch holds the keyed sub-query to the reference of
// TestKeyedMatchEqualsSeededMatch on cases read off the input: providers,
// the two patterns with any mix of variables and constants per position,
// scope, filter, the triples with their holders, then the unit-key mask.
// The corpus under testdata/fuzz/FuzzKeyedMatch puts a split mask on the
// assemblies that differ: seeds that are their own keys, a GRAPH-variable
// key column, ?x p ?x, rows held by several providers; ground_pattern_graph_key
// is a ground pattern under GRAPH ?g whose reply is the graph-name column.
func FuzzKeyedMatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 2, 2, 3, 4, 0, 0, 6, 0, 1, 2, 3, 0, 1, 3, 3, 5, 1, 2, 3, 1, 1, 2, 0, 4, 7, 2})
	f.Add([]byte{2, 1, 0, 1, 2, 0, 1, 0, 1, 1, 1, 0, 3, 9, 1, 0, 2, 1, 1, 2, 1, 3, 3, 2, 0, 0, 2, 1, 0, 1, 0, 1, 1, 1, 1, 2})
	f.Add([]byte("a pattern may repeat ?x, name ?g, or bind nothing at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		decodeKeyedCase(data).check(t)
	})
}
