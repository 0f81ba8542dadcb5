package eval

import (
	"slices"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// The operators the distributed engine applies above a basic graph pattern.
// Each returns, over the same rows written as mappings, its Solutions
// counterpart's sequence; a result may share the input's terms. One whose
// result holds exactly its input's terms passes the input's Dict on; the
// others' results carry none until counted.

// UnionTables returns a ∪ b: a's rows, then b's, over a's variables followed
// by b's others; a row leaves the other side's variables unbound.
func UnionTables(a, b Table) Table { return union(a, b.Vars, b.N, b.Row) }

// Union returns UnionTables(a, s.Table()) without the copy.
func (s MatchSet) Union(a Table) Table { return union(a, s.Vars, len(s.Rows), s.row) }

// union returns a ∪ b, b being the bn rows over bVars that bRow(i) reads.
func union(a Table, bVars []string, bn int, bRow func(int) []rdf.Term) Table {
	all := slices.Clip(a.Vars)
	for _, v := range bVars {
		if !slices.Contains(all, v) {
			all = append(all, v)
		}
	}
	w := len(all)
	out := Table{Vars: all, Terms: make([]rdf.Term, (a.N+bn)*w), N: a.N + bn}
	place := func(from int, vars []string, n int, row func(int) []rdf.Term) {
		for c, v := range vars {
			k := slices.Index(all, v)
			for i := 0; i < n; i++ {
				out.Terms[(from+i)*w+k] = row(i)[c]
			}
		}
	}
	place(0, a.Vars, a.N, a.Row)
	place(a.N, bVars, bn, bRow)
	return out
}

// Filter keeps the rows that satisfy expr: t itself when every row does.
func (t Table) Filter(expr sparql.Expression) Table {
	if keep := rowFilter(t.Vars, expr); keep != nil {
		if out, all := kept(t.Vars, t.N, t.Row, keep); !all {
			return out
		}
	}
	return t
}

// Filter returns s.Table().Filter(expr), copying only the rows that
// satisfy expr.
func (s MatchSet) Filter(expr sparql.Expression) Table {
	if keep := rowFilter(s.Vars, expr); keep != nil {
		if out, all := kept(s.Vars, len(s.Rows), s.row, keep); !all {
			return out
		}
	}
	return s.Table()
}

// kept copies the rows among n that satisfy keep, row(i) reading row i, into
// one table over vars sized before it is filled; all reports that every row
// does, and then nothing is copied.
func kept(vars []string, n int, row func(int) []rdf.Term, keep func([]rdf.Term) bool) (out Table, all bool) {
	pass := make([]bool, n)
	k := 0
	for i := range pass {
		if pass[i] = keep(row(i)); pass[i] {
			k++
		}
	}
	if k == n {
		return Table{}, true
	}
	out = Table{Vars: vars, Terms: make([]rdf.Term, 0, k*len(vars)), N: k}
	for i, ok := range pass {
		if ok {
			out.Terms = append(out.Terms, row(i)...)
		}
	}
	return out, false
}

// Project restricts every row to the columns of vars.
func (t Table) Project(vars []string) Table {
	var cols []int
	for c, v := range t.Vars {
		if slices.Contains(vars, v) {
			cols = append(cols, c)
		}
	}
	out := Table{Vars: make([]string, len(cols)), Terms: make([]rdf.Term, 0, t.N*len(cols)), N: t.N}
	for k, c := range cols {
		out.Vars[k] = t.Vars[c]
	}
	for i := 0; i < t.N; i++ {
		row := t.Row(i)
		for _, c := range cols {
			out.Terms = append(out.Terms, row[c])
		}
	}
	return out
}

// Distinct removes duplicate rows, preserving first occurrences.
func (t Table) Distinct() Table {
	if t.N == 0 {
		return t
	}
	out := distinctRows(t, t.Vars)
	out.Dict = t.Dict
	return out
}

// Reduced removes adjacent duplicate rows.
func (t Table) Reduced() Table {
	out := Table{Vars: t.Vars, Terms: make([]rdf.Term, 0, len(t.Terms)), Dict: t.Dict}
	for i := 0; i < t.N; i++ {
		if i > 0 && slices.Equal(t.Row(i), t.Row(i-1)) {
			continue
		}
		out.Terms = append(out.Terms, t.Row(i)...)
		out.N++
	}
	return out
}

// Order sorts the rows by the ORDER BY conditions as Order sorts mappings,
// each row's keys evaluated once.
func (t Table) Order(conds []sparql.OrderCond) Table {
	as := scratchRow(t.Vars)
	out := Table{Vars: t.Vars, Terms: make([]rdf.Term, 0, len(t.Terms)), N: t.N, Dict: t.Dict}
	for _, i := range orderRows(conds, t.N, func(i int) Binding { return as(t.Row(i)) }) {
		out.Terms = append(out.Terms, t.Row(i)...)
	}
	return out
}

// Slice applies OFFSET and LIMIT (-1 meaning unset).
func (t Table) Slice(offset, limit int) Table {
	from, to := min(max(offset, 0), t.N), t.N
	if limit >= 0 {
		to = min(from+limit, t.N)
	}
	if from == 0 && to == t.N {
		return t
	}
	w := len(t.Vars)
	return Table{Vars: t.Vars, Terms: t.Terms[from*w : to*w : to*w], N: to - from}
}

// rowFilter returns the test of expr on a row over vars; nil when expr is.
func rowFilter(vars []string, expr sparql.Expression) func([]rdf.Term) bool {
	if expr == nil {
		return nil
	}
	as := scratchRow(vars)
	return func(row []rdf.Term) bool { return Satisfies(expr, as(row)) }
}

// scratchRow returns a function writing a row over vars into one reused
// mapping, which it returns: an unbound cell leaves its variable absent,
// never present as the zero term, or bound() would call it bound.
func scratchRow(vars []string) func([]rdf.Term) Binding {
	b := make(Binding, len(vars))
	return func(row []rdf.Term) Binding {
		for c, v := range vars {
			if row[c].IsZero() {
				delete(b, v)
			} else {
				b[v] = row[c]
			}
		}
		return b
	}
}
