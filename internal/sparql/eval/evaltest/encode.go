// Package evaltest is the reference encoder of the one table rule
// (eval.Dict, DESIGN §5), imported by tests only. It writes the bytes the
// rule charges a table, a match set or a solution multiset — the row count,
// the cell width, the names of the variables some row binds, each distinct
// bound term once, an index per cell — counting the dictionary with a map
// of its own, so that a test can hold SizeBytes and a carried Dict to it.
package evaltest

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql/eval"
)

// Encoding is what the encoder wrote, and the dictionary it wrote.
type Encoding struct {
	Bytes []byte
	Dict  eval.Dict
	Width int // the cell index width
}

// Table encodes t's rows.
func Table(t eval.Table) Encoding {
	rows := make([][]rdf.Term, t.N)
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return encode(t.Vars, rows)
}

// MatchSet encodes s's rows.
func MatchSet(s eval.MatchSet) Encoding { return encode(s.Vars, s.Rows) }

// Solutions encodes the mappings as a table over the variables they bind,
// in sorted order, a mapping leaving one of them unbound in its cell.
func Solutions(s eval.Solutions) Encoding {
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
	e := Encoding{Dict: eval.Dict{Len: len(dict)}, Width: 4}
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
		at := len(e.Bytes)
		var tagged byte
		if t.Tagged {
			tagged = 1
		}
		e.Bytes = append(e.Bytes, byte(t.Kind), tagged) // the 2-byte kind tag
		e.Bytes = append(e.Bytes, t.Value...)
		e.Bytes = append(e.Bytes, t.Suffix...)
		e.Dict.Bytes += len(e.Bytes) - at
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

// CheckTable reports how t's carried dictionary or its charge departs from
// the encoder's; nil when both agree with it. A table with bound terms that
// carries no Dict was not counted.
func CheckTable(t eval.Table) error {
	return check(t.Dict, t.SizeBytes(), Table(t))
}

// CheckMatchSet is CheckTable for a match set.
func CheckMatchSet(s eval.MatchSet) error {
	return check(s.Dict, s.SizeBytes(), MatchSet(s))
}

func check(carried eval.Dict, size int, e Encoding) error {
	switch {
	case carried != e.Dict:
		return fmt.Errorf("carries %+v, the encoder's dictionary is %+v", carried, e.Dict)
	case size != len(e.Bytes):
		return fmt.Errorf("charged %d B, encoded in %d", size, len(e.Bytes))
	}
	return nil
}
