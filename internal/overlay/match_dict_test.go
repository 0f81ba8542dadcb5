package overlay

import (
	"slices"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
)

// TestMatchKeysDictionaryIsItsRowsTerms holds store.match replies to the
// reference layout of their rows, eval.TableOf, which builds a dictionary
// by value: over one graph the reply's dictionary is built from the
// graph's term IDs, over several graphs or with a GRAPH column by value,
// and either way it holds exactly the terms its rows use, none twice, in
// order of first use. Between matches the node's ID scratch is zero.
func TestMatchKeysDictionaryIsItsRowsTerms(t *testing.T) {
	s, now := newTestSystem(t, 2)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	people := []string{"alice", "bob", "carol", "dave"}
	var def, g1 []rdf.Triple
	for i, p := range people {
		def = append(def, rdf.Triple{S: ex(p), P: fp("name"), O: rdf.NewLiteral(p)},
			rdf.Triple{S: ex(p), P: fp("knows"), O: ex(people[(i+1)%len(people)])})
		g1 = append(g1, rdf.Triple{S: ex(p), P: fp("knows"), O: ex(people[(i+2)%len(people)])})
	}
	def = append(def, rdf.Triple{S: ex("dave"), P: fp("knows"), O: ex("dave")})
	if now, err = s.Publish("D1", def, now); err != nil {
		t.Fatal(err)
	}
	if now, err = s.PublishGraph("D1", "urn:g1", g1, now); err != nil {
		t.Fatal(err)
	}
	node, _ := s.Storage("D1")
	x, y, n, g := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("n"), rdf.NewVar("g")
	two := eval.TableOf([]string{"x"}, []rdf.Term{ex("alice"), ex("carol")})
	notBob := &sparql.ExprCmp{Op: sparql.CmpNeq, Left: &sparql.ExprVar{Name: "x"}, Right: &sparql.ExprTerm{Term: ex("bob")}}
	unit := eval.Table{N: 1}
	for _, c := range []struct {
		name   string
		pat    rdf.Triple
		filter sparql.Expression
		keys   eval.Table
		graph  rdf.Term
	}{
		{"knows", rdf.Triple{S: x, P: fp("knows"), O: y}, nil, unit, rdf.Term{}},
		{"every triple", rdf.Triple{S: x, P: n, O: y}, nil, unit, rdf.Term{}},
		{"repeated variable", rdf.Triple{S: x, P: fp("knows"), O: x}, nil, unit, rdf.Term{}},
		{"filtered", rdf.Triple{S: x, P: fp("name"), O: n}, notBob, unit, rdf.Term{}},
		{"keyed", rdf.Triple{S: x, P: fp("knows"), O: y}, nil, two, rdf.Term{}},
		{"named graph", rdf.Triple{S: x, P: fp("knows"), O: y}, nil, two, rdf.NewIRI("urn:g1")},
		{"GRAPH column", rdf.Triple{S: x, P: fp("knows"), O: y}, nil, unit, g},
		{"no match", rdf.Triple{S: ex("nobody"), P: fp("knows"), O: y}, nil, unit, rdf.Term{}},
	} {
		reply := node.MatchKeys(c.pat, c.filter, c.keys, nil, nil, c.graph)
		var cells []rdf.Term
		for i := 0; i < reply.N; i++ {
			for col := range reply.Vars {
				cells = append(cells, reply.Term(i, col))
			}
		}
		want := eval.TableOf(reply.Vars, cells)
		if !slices.Equal(reply.Dict, want.Dict) || !slices.Equal(reply.Cells, want.Cells) {
			t.Errorf("%s: the reply's dictionary %v and cells %v, want %v and %v", c.name, reply.Dict, reply.Cells, want.Dict, want.Cells)
		}
		if c.name != "no match" && reply.N == 0 {
			t.Errorf("%s: no rows", c.name)
		}
		node.matchMu.Lock()
		if i := slices.IndexFunc(node.pos, func(p uint32) bool { return p != 0 }); i >= 0 {
			t.Errorf("%s: after the match the scratch holds position %d for ID %d", c.name, node.pos[i], i)
		}
		node.matchMu.Unlock()
	}
}
