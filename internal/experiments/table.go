// Package experiments implements the evaluation harness: one function per
// experiment of the per-experiment index in DESIGN.md (E1–E12). The paper
// defers its performance evaluation to future work (Sect. V), so these
// experiments *are* the reproduction target: each mechanism and each
// qualitative claim from Sect. III–IV becomes a measured table. The same
// functions back the `benchmark` command and the root-level testing.B
// benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"adhocshare/internal/simnet"
)

// Table is one experiment's result: a caption, column headers and rows.
type Table struct {
	ID      string
	Caption string
	Headers []string
	Rows    [][]string
	// Notes records observations tied to the paper's claims.
	Notes []string
	// Traffic is the optional per-method traffic breakdown of the
	// experiment's runs, one entry per (scope, RPC method). Scope names the
	// configuration row the traffic belongs to.
	Traffic []TrafficRow
}

// TrafficRow is one RPC method's share of a run's traffic.
type TrafficRow struct {
	Scope    string `json:"scope,omitempty"`
	Method   string `json:"method"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// AddTraffic folds a per-method snapshot into the table's traffic
// breakdown under the given scope, in deterministic method order.
func (t *Table) AddTraffic(scope string, per map[string]simnet.MethodStats) {
	methods := make([]string, 0, len(per))
	for m := range per {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		st := per[m]
		t.Traffic = append(t.Traffic, TrafficRow{
			Scope: scope, Method: m, Messages: st.Messages, Bytes: st.Bytes,
		})
	}
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// lowest returns the position of a numeric column and the first of the rows
// [from, to) holding its minimum there. The table must have that column and
// the range at least one row.
func (t *Table) lowest(col string, from, to int) (c, row int) {
	c = slices.Index(t.Headers, col)
	best := math.Inf(1)
	for i := from; i < to; i++ {
		if v, err := strconv.ParseFloat(t.Rows[i][c], 64); err == nil && v < best {
			best, row = v, i
		}
	}
	return c, row
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Caption)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	// One compact line per scope: every method's msgs/bytes share.
	var scope string
	var parts []string
	flush := func() {
		if len(parts) > 0 {
			fmt.Fprintf(w, "  traffic[%s]: %s\n", scope, strings.Join(parts, " "))
			parts = nil
		}
	}
	for _, tr := range t.Traffic {
		if tr.Scope != scope {
			flush()
			scope = tr.Scope
		}
		parts = append(parts, fmt.Sprintf("%s=%d/%dB", tr.Method, tr.Messages, tr.Bytes))
	}
	flush()
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// kb formats a byte count in KiB with two decimals.
func kb(n int64) string { return fmt.Sprintf("%.2f", float64(n)/1024) }
