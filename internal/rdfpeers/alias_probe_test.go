package rdfpeers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/testutil"
)

// TestAliasProbeBaseline stores triples and runs single-pattern, flooded,
// conjunctive and range queries, every node's handler under the alias
// probe (testutil.AliasProbe): no delivered payload may share memory with
// a node, and every RDFPeers method must have been delivered.
func TestAliasProbeBaseline(t *testing.T) {
	s, now := newRing(t, 6)
	if err := s.EnableRangeIndex(0, 100); err != nil {
		t.Fatal(err)
	}
	p := testutil.NewAliasProbe(reflect.TypeOf((*simnet.Network)(nil)).Elem())
	for addr, n := range s.nodes {
		p.Node(string(addr), n)
		s.net.Register(addr, simnet.HandlerFunc(testutil.Wrap(p, string(addr), n.HandleCall)))
	}
	ts := sampleTriples()
	for i := 1; i <= 6; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("p%d", i)), P: fp("age"), O: rdf.NewInteger(int64(15 * i))})
	}
	now, err := s.StoreAll("rp-00", ts, now)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []rdf.Triple{{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")}, {S: rdf.NewVar("s"), P: rdf.NewVar("p"), O: rdf.NewVar("o")}} {
		if _, now, err = s.QueryPattern("rp-02", pat, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, now, err = s.QueryConjunctive("rp-05", "s", []rdf.Triple{
		{S: rdf.NewVar("s"), P: fp("based_near"), O: ex("paris")},
		{S: rdf.NewVar("s"), P: fp("knows"), O: ex("bob")},
	}, now); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err = s.QueryRange("rp-03", fp("age"), 20, 80, now); err != nil {
		t.Fatal(err)
	}
	p.Check(t, MethodStore, MethodMatch, MethodIntersect, MethodRange)
}

// TestRangeResultSortedBeforeTransfer pins where QueryRange sorts its
// result: before the transfer that ships it. The payload shares its
// backing array with the slice the caller gets, so a sort after the send
// would rewrite bytes already on the wire. A transfer runs no handler, so
// the alias probe never sees its payload, and its modeled size does not
// depend on order: this is the one place that shows the sort's position.
func TestRangeResultSortedBeforeTransfer(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "range.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sorted, sent token.Pos
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "QueryRange" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "SortTriples":
						sorted = sel.Pos()
					case "TransferRetry":
						sent = sel.Pos()
					}
				}
				return true
			})
		}
	}
	if !sorted.IsValid() || !sent.IsValid() || sorted > sent {
		t.Errorf("QueryRange must sort its result (rdf.SortTriples) before TransferRetry ships it")
	}
}
