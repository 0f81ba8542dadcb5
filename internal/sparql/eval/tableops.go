package eval

import (
	"slices"

	"adhocshare/internal/sparql"
)

// The operators the distributed engine applies above a basic graph pattern.
// Each returns, over the same rows written as mappings, its Solutions
// counterpart's sequence; a unary operator's result shares its input's
// dictionary, and may share its cells.

// UnionTables returns a ∪ b: a's rows, then b's, over a's variables followed
// by b's others; a row leaves the other side's variables unbound. b's
// dictionary is remapped into a's, whose terms keep their positions.
func UnionTables(a, b Table) Table {
	all := slices.Clip(a.Vars)
	for _, v := range b.Vars {
		if !slices.Contains(all, v) {
			all = append(all, v)
		}
	}
	d := dictIndex{terms: slices.Clip(a.Dict)}
	rb := make([]uint32, len(b.Dict)+1)
	for k, t := range b.Dict {
		rb[k+1] = d.add(t)
	}
	w := len(all)
	out := Table{Vars: all, Dict: d.terms, Cells: make([]uint32, (a.N+b.N)*w), N: a.N + b.N}
	place := func(from int, t Table, r []uint32) { // r nil: t's cells as they are
		for c, v := range t.Vars {
			col := slices.Index(all, v)
			for i := 0; i < t.N; i++ {
				k := t.row(i)[c]
				if r != nil {
					k = r[k]
				}
				out.Cells[(from+i)*w+col] = k
			}
		}
	}
	place(0, a, nil)
	place(a.N, b, rb)
	return out
}

// Filter keeps the rows that satisfy expr: t itself when every row does.
func (t Table) Filter(expr sparql.Expression) Table {
	keep := rowFilter(t.Vars, t.terms(), expr)
	if keep == nil {
		return t
	}
	pass := make([]bool, t.N)
	k := 0
	for i := range pass {
		if pass[i] = keep(t.row(i)); pass[i] {
			k++
		}
	}
	if k == t.N {
		return t
	}
	out := Table{Vars: t.Vars, Dict: t.Dict, Cells: make([]uint32, 0, k*len(t.Vars)), N: k}
	for i, ok := range pass {
		if ok {
			out.Cells = append(out.Cells, t.row(i)...)
		}
	}
	return out
}

// Project restricts every row to the columns of vars.
func (t Table) Project(vars []string) Table {
	var cols []int
	for c, v := range t.Vars {
		if slices.Contains(vars, v) {
			cols = append(cols, c)
		}
	}
	out := Table{Vars: make([]string, len(cols)), Dict: t.Dict, Cells: make([]uint32, 0, t.N*len(cols)), N: t.N}
	for k, c := range cols {
		out.Vars[k] = t.Vars[c]
	}
	for i := 0; i < t.N; i++ {
		row := t.row(i)
		for _, c := range cols {
			out.Cells = append(out.Cells, row[c])
		}
	}
	return out
}

// Distinct removes duplicate rows, preserving first occurrences.
func (t Table) Distinct() Table {
	if t.N == 0 {
		return t
	}
	return distinctRows(t, t.Vars)
}

// Reduced removes adjacent duplicate rows.
func (t Table) Reduced() Table {
	out := Table{Vars: t.Vars, Dict: t.Dict, Cells: make([]uint32, 0, len(t.Cells))}
	for i := 0; i < t.N; i++ {
		if i > 0 && slices.Equal(t.row(i), t.row(i-1)) {
			continue
		}
		out.Cells = append(out.Cells, t.row(i)...)
		out.N++
	}
	return out
}

// Order sorts the rows by the ORDER BY conditions as Order sorts mappings,
// each row's keys evaluated once, through the dictionary.
func (t Table) Order(conds []sparql.OrderCond) Table {
	as := scratchRow(t.Vars, t.terms())
	out := Table{Vars: t.Vars, Dict: t.Dict, Cells: make([]uint32, 0, len(t.Cells)), N: t.N}
	for _, i := range orderRows(conds, t.N, func(i int) Binding { return as(t.row(i)) }) {
		out.Cells = append(out.Cells, t.row(i)...)
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
	return Table{Vars: t.Vars, Dict: t.Dict, Cells: t.Cells[from*w : to*w : to*w], N: to - from}
}

// rowFilter returns the test of expr on a row of cells over vars that d
// reads; nil when expr is.
func rowFilter(vars []string, d terms, expr sparql.Expression) func([]uint32) bool {
	if expr == nil {
		return nil
	}
	as := scratchRow(vars, d)
	return func(row []uint32) bool { return Satisfies(expr, as(row)) }
}

// scratchRow returns a function writing a row of cells over vars, whose
// terms d reads, into one reused mapping, which it returns: an unbound cell
// leaves its variable absent, never present as the zero term, or bound()
// would call it bound.
func scratchRow(vars []string, d terms) func([]uint32) Binding {
	b := make(Binding, len(vars))
	return func(row []uint32) Binding {
		for c, v := range vars {
			if row[c] == 0 {
				delete(b, v)
			} else {
				b[v] = d.of(row[c])
			}
		}
		return b
	}
}

// Solutions returns t's rows as mappings, each binding its row's bound
// cells.
func (t Table) Solutions() Solutions {
	if t.N == 0 {
		return nil
	}
	out := make(Solutions, t.N)
	for i := range out {
		row := t.row(i)
		b := make(Binding, len(t.Vars))
		for c, v := range t.Vars {
			if row[c] != 0 {
				b[v] = t.Dict[row[c]-1]
			}
		}
		out[i] = b
	}
	return out
}
