package overlay

import (
	"testing"

	"adhocshare/internal/chord"
)

// TestExtractRangeDoesNotAliasInternalRows is the regression test for a
// real wire-isolation bug: ExtractRange used to return the interior row
// slices themselves. delete(t.rows, key) drops the map entry, but the
// backing array stayed shared with any reference captured before the
// extraction, and the extracted rows travel over the wire to the joining
// index node — so a mutation on either side was visible on the other.
// The test fails if the deep-copy in ExtractRange is reverted.
func TestExtractRangeDoesNotAliasInternalRows(t *testing.T) {
	tbl := NewLocationTable()
	key := chord.ID(42)
	tbl.Add(key, "n1", 2)
	tbl.Add(key, "n2", 5)

	// White-box: hold the internal slice of the two-posting row — a row of
	// two or more postings is the only kind with a backing array; a
	// one-posting row lives by value in its slot of tbl.one — as a
	// long-lived iterator or an in-flight reader would.
	internal := tbl.rows[key].ps
	if _, single := tbl.one[key]; single || len(internal) != 2 {
		t.Fatalf("a two-posting row is not a slice of rows: one %v, rows %v", tbl.one, tbl.rows)
	}

	rows := tbl.ExtractRange(key-1, key)
	got, ok := rows[key]
	if !ok || len(got) != 2 {
		t.Fatalf("ExtractRange did not return the row: %v", rows)
	}
	if tbl.Len() != 0 {
		t.Fatalf("ExtractRange did not remove the row, %d left", tbl.Len())
	}

	// Mutate the extracted copy the way the receiving node would.
	got[0].Freq = 99
	got[1].Freq = 99

	if internal[0].Freq != 2 || internal[1].Freq != 5 {
		t.Fatalf("extracted rows share the table's backing array: internal postings became %+v", internal)
	}
}

// TestSnapshotDoesNotAliasInternalRows pins the same ownership contract
// for the replication path: mutating a snapshot must not corrupt the
// primary's table.
func TestSnapshotDoesNotAliasInternalRows(t *testing.T) {
	tbl := NewLocationTable()
	key := chord.ID(7)
	tbl.Add(key, "n1", 3)

	snap := tbl.Snapshot()
	snap[key][0].Freq = 99

	if got := tbl.Get(key); len(got) != 1 || got[0].Freq != 3 {
		t.Fatalf("snapshot shares the table's backing array: table row became %+v", got)
	}
}
