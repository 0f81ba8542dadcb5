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
)

// The keyed sub-query against its reference. A case is a dataset spread
// over providers with overlap, a pattern that produced the partial
// solutions so far (zero = the unit seed), the pattern asked next, an
// optional pushed filter over the asked pattern's variables and an optional
// GRAPH scope. The engine's side — project the keys, ask every provider,
// accumulate, join — must return what one evaluator over the union of all
// providers returns for EvalBGP(union, pattern, seeds). (The fuzz target
// keeps this file out of internal/overlay, whose TestMain counts the fuzz
// coordinator's goroutine as a leak.)

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
}

func (c keyedCase) String() string {
	return fmt.Sprintf("%d providers, %d triples, seeds from %v, pattern %v, filter %v, scope %v",
		c.providers, len(c.triples), c.seedPat, c.pat, c.filter, c.scope)
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
func (c keyedCase) run(nodes []*overlay.StorageNode, seeds eval.Solutions) eval.Solutions {
	keys, rowsKeys := projectKeys(c.pat, c.scope, seeds)
	acc := eval.NewMatches(keys, 0)
	for _, n := range nodes {
		acc.Add(n.MatchKeys(c.pat, c.filter, keys, nil, nil, c.scope))
	}
	return assemble(acc, seeds, rowsKeys)
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
// sequence across two fresh deployments.
func (c keyedCase) check(t *testing.T) {
	t.Helper()
	seeds := eval.Solutions{eval.NewBinding()}
	if c.seedPat != (rdf.Triple{}) {
		seeds = eval.Distinct(c.reference([]rdf.Triple{c.seedPat}, seeds))
	}
	if len(seeds) == 0 {
		return // the conjunction is empty already; the engine asks nothing
	}
	want := eval.FilterSolutions(c.reference([]rdf.Triple{c.pat}, seeds), c.filter)
	got := c.run(c.deploy(), seeds)
	gotKeys, wantKeys := sortedKeys(got), sortedKeys(want)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%v:\n got %d rows %v\nwant %d rows %v", c, len(got), got, len(want), want)
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("%v:\n got %v\nwant %v", c, got, want)
		}
	}
	again := c.run(c.deploy(), seeds)
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
				c := keyedCase{providers: 1 + rng.Intn(4), seedPat: sh.seedPat, pat: sh.pat, filter: sh.filter, scope: sh.scope}
				c.triples = randomKeyedTriples(rng, c.providers)
				c.check(t)
			}
		})
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
	return c
}

// FuzzKeyedMatch holds the keyed sub-query to the reference of
// TestKeyedMatchEqualsSeededMatch on cases read off the input: providers,
// the two patterns with any mix of variables and constants per position,
// scope, filter, then the triples with their holders.
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
