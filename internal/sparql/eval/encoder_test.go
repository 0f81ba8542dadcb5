package eval_test

// The one table rule (DESIGN §5) held to the reference encoder
// (testutil.Encode), which reads a table through Table.Term only.

import (
	"fmt"
	"math/rand"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/testutil"
)

// pool returns n distinct terms, of every kind a table holds.
func pool(n int) []rdf.Term {
	out := make([]rdf.Term, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = rdf.NewIRI(fmt.Sprintf("http://example.org/person%d", i))
		case 1:
			out[i] = rdf.NewLiteral(fmt.Sprintf("name %d", i))
		case 2:
			out[i] = rdf.NewLangLiteral(fmt.Sprintf("n%d", i), "en")
		default:
			out[i] = rdf.NewTypedLiteral(fmt.Sprint(i), "http://www.w3.org/2001/XMLSchema#integer")
		}
	}
	return out
}

// draw lays out n rows over vars from terms, a cell unbound one time in
// four when holes is set; column dead, when in range, is never bound.
func draw(r *rand.Rand, vars []string, n int, terms []rdf.Term, holes bool, dead int) eval.Table {
	var cells []rdf.Term
	for i := 0; i < n*len(vars); i++ {
		var term rdf.Term
		if c := i % len(vars); c != dead && !(holes && r.Intn(4) == 0) {
			term = terms[r.Intn(len(terms))]
		}
		cells = append(cells, term)
	}
	t := eval.TableOf(vars, cells)
	t.N = n
	return t
}

// mappings writes t's rows as mappings, an unbound cell a variable left out.
func mappings(t eval.Table) eval.Solutions {
	out := make(eval.Solutions, t.N)
	for i := range out {
		out[i] = eval.Binding{}
		for c, v := range t.Vars {
			if term := t.Term(i, c); !term.IsZero() {
				out[i][v] = term
			}
		}
	}
	return out
}

// agree holds every form of t's rows to the encoder: t as drawn, the rows
// as mappings, and the rows a Matches holds after t and then more, which
// it remaps into t's dictionary.
func agree(t *testing.T, what string, tab, more eval.Table) {
	t.Helper()
	e := testutil.Encode(tab)
	if got := tab.SizeBytes(); got != len(e) {
		t.Fatalf("%s: the table is charged %d B, encoded in %d", what, got, len(e))
	}
	sols := mappings(tab)
	if got, enc := sols.SizeBytes(), len(testutil.Encode(sols)); got != enc || got != len(e) {
		t.Fatalf("%s: the rows as mappings are charged %d B and encoded in %d, the table in %d", what, got, enc, len(e))
	}
	m := eval.NewMatches(eval.Table{}, 0)
	for _, add := range []eval.Table{tab, more} {
		m.Add(add)
		if err := testutil.CheckWire(m.Table()); err != nil {
			t.Fatalf("%s: the accumulated rows %v", what, err)
		}
	}
}

// TestEncoderAgreesWithSizeBytes: over generated tables — unbound cells,
// terms repeated within and across rows, a column no row binds, no rows,
// the unit key — the encoder's length is what SizeBytes charges, for a
// Table, for the rows a Matches accumulates and for the same rows as
// Solutions.
func TestEncoderAgreesWithSizeBytes(t *testing.T) {
	for _, tab := range []eval.Table{{}, {N: 1}, {N: 3}, {Vars: []string{"x", "y"}}} {
		if got := len(testutil.Encode(tab)); got != 5 || tab.SizeBytes() != 5 {
			t.Errorf("%+v: encoded in %d B, charged %d; a table without a column that travels is its 5-byte header", tab, got, tab.SizeBytes())
		}
	}
	schemas := [][]string{{}, {"x"}, {"person", "n"}, {"a", "bb", "ccc", "dddd"}}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		vars := schemas[r.Intn(len(schemas))]
		terms := pool(1 + r.Intn(40))
		dead := -1
		if seed%5 == 0 {
			dead = r.Intn(len(vars) + 1)
		}
		tab := draw(r, vars, r.Intn(30), terms, seed%2 == 1, dead)
		more := draw(r, vars, r.Intn(30), terms, seed%2 == 1, dead)
		agree(t, fmt.Sprintf("seed %d, %v", seed, vars), tab, more)
	}
}

// TestEncoderWidthBoundaries: the cell index is 1 byte up to 255 distinct
// terms, 2 up to 65,535 and 4 beyond, index 0 being an unbound cell.
func TestEncoderWidthBoundaries(t *testing.T) {
	for _, c := range []struct{ distinct, width int }{
		{254, 1}, {255, 1}, {256, 2}, {65534, 2}, {65535, 2}, {65536, 4},
	} {
		terms := pool(c.distinct)
		// every term in the first column, the second repeating them, and
		// one unbound cell
		var cells []rdf.Term
		for i, term := range terms {
			cells = append(cells, term, terms[i/2])
		}
		cells[1] = rdf.Term{}
		tab := eval.TableOf([]string{"x", "y"}, cells)
		if width := testutil.Encode(tab)[4]; int(width) != c.width {
			t.Errorf("%d distinct terms: encoded with %d-byte cells, want %d-byte cells", c.distinct, width, c.width)
		}
		agree(t, fmt.Sprintf("%d distinct terms", c.distinct), tab, eval.Table{})
	}
}

// TestOperatorsCarryTheEncodersDict: every operator's result is charged
// what the encoder writes for its rows — KeyTable's and the unary
// operators', which keep their input's dictionary and with it entries no
// cell uses, and the binary operators', which remap one operand's
// dictionary into the other's.
func TestOperatorsCarryTheEncodersDict(t *testing.T) {
	vars := []string{"x", "y", "z"}
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		terms := pool(1 + r.Intn(25))
		a := draw(r, vars, r.Intn(25), terms, seed%2 == 1, -1)
		b := draw(r, []string{"y", "w"}, r.Intn(25), terms, false, -1)
		what := fmt.Sprintf("seed %d", seed)
		for _, keys := range [][]string{{"x"}, {"z", "x"}, vars} {
			if err := testutil.CheckWire(eval.KeyTable(a, keys)); err != nil {
				t.Errorf("%s: KeyTable onto %v %v", what, keys, err)
			}
		}
		order := []sparql.OrderCond{{Expr: &sparql.ExprVar{Name: "y"}}}
		bound := &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{&sparql.ExprVar{Name: "z"}}}
		for op, out := range map[string]eval.Table{
			"Distinct": a.Distinct(), "Reduced": a.Reduced(), "Order": a.Order(order),
			"Slice(0, -1)": a.Slice(0, -1), "Filter(nil)": a.Filter(nil),
			"JoinTables": eval.JoinTables(a, b), "LeftJoinTables": eval.LeftJoinTables(a, b, nil),
			"UnionTables": eval.UnionTables(a, b), "Project": a.Project([]string{"y", "x"}),
			"Filter": a.Filter(bound), "Slice(1, 3)": a.Slice(1, 3),
		} {
			if err := testutil.CheckWire(out); err != nil {
				t.Errorf("%s: %s %v", what, op, err)
			}
		}
	}
	if keys := eval.KeyTable(eval.Table{N: 1}, nil); len(keys.Cells) != 0 || keys.N != 1 {
		t.Errorf("the unit key is %+v", keys)
	}
}
