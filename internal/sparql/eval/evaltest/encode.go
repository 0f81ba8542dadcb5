// Package evaltest is the reference encoder of the one table rule (DESIGN
// §5), imported by tests only. It writes the bytes the rule charges a table
// or a solution multiset — the row count, the cell width, the names of the
// variables some row binds, each distinct bound term once, an index per
// cell — so that a test can hold SizeBytes to it. It reads a table through
// a cell accessor only and counts the dictionary by value with a map of its
// own: the table's own dictionary is never read, so a term held twice in
// it, or a stale one, shows as a mismatch. It imports no eval, so eval's
// own tests can use it.
package evaltest

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"adhocshare/internal/rdf"
)

// Encoding is what the encoder wrote: the bytes, the distinct terms it
// wrote once each, and the cell index width.
type Encoding struct {
	Bytes    []byte
	Distinct int
	Width    int
}

// Cell reads the term of row i in column c, the zero Term when the cell is
// unbound, as eval.Table.Term does.
type Cell func(i, c int) rdf.Term

// Encode encodes n rows over vars, read cell by cell.
func Encode(vars []string, n int, cell Cell) Encoding {
	rows := make([][]rdf.Term, n)
	for i := range rows {
		for c := range vars {
			rows[i] = append(rows[i], cell(i, c))
		}
	}
	return encode(vars, rows)
}

// Solutions encodes the mappings as a table over the variables they bind,
// in sorted order, a mapping leaving one of them unbound in its cell.
func Solutions[B ~map[string]rdf.Term](s []B) Encoding {
	var vars []string
	for _, b := range s {
		for v := range b {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	sort.Strings(vars)
	rows := make([][]rdf.Term, len(s))
	for i, b := range s {
		for _, v := range vars {
			rows[i] = append(rows[i], b[v])
		}
	}
	return encode(vars, rows)
}

func encode(vars []string, rows [][]rdf.Term) Encoding {
	var cols []int // the columns that travel: those some row binds
	for c := range vars {
		if slices.ContainsFunc(rows, func(row []rdf.Term) bool { return !row[c].IsZero() }) {
			cols = append(cols, c)
		}
	}
	index := map[rdf.Term]uint32{} // term → 1-based position in dict
	var dict []rdf.Term
	for _, row := range rows {
		for _, c := range cols {
			if t := row[c]; !t.IsZero() && index[t] == 0 {
				dict = append(dict, t)
				index[t] = uint32(len(dict))
			}
		}
	}
	e := Encoding{Distinct: len(dict), Width: 4}
	switch {
	case len(dict)+1 <= 1<<8:
		e.Width = 1
	case len(dict)+1 <= 1<<16:
		e.Width = 2
	}
	e.Bytes = binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	e.Bytes = append(e.Bytes, byte(e.Width))
	for _, c := range cols {
		e.Bytes = append(e.Bytes, vars[c]...)
	}
	for _, t := range dict {
		var tagged byte
		if t.Tagged {
			tagged = 1
		}
		e.Bytes = append(e.Bytes, byte(t.Kind), tagged) // the 2-byte kind tag
		e.Bytes = append(e.Bytes, t.Value...)
		e.Bytes = append(e.Bytes, t.Suffix...)
	}
	for _, row := range rows {
		for _, c := range cols {
			i := index[row[c]] // 0 for an unbound cell
			switch e.Width {
			case 1:
				e.Bytes = append(e.Bytes, byte(i))
			case 2:
				e.Bytes = binary.LittleEndian.AppendUint16(e.Bytes, uint16(i))
			default:
				e.Bytes = binary.LittleEndian.AppendUint32(e.Bytes, i)
			}
		}
	}
	return e
}

// Check reports how size, a table's charge, departs from what the encoder
// writes for its n rows over vars; nil when they agree.
func Check(vars []string, n int, cell Cell, size int) error {
	if e := Encode(vars, n, cell); size != len(e.Bytes) {
		return fmt.Errorf("charged %d B, encoded in %d with %d distinct terms", size, len(e.Bytes), e.Distinct)
	}
	return nil
}
