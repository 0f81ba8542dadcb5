package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesSeedZeroTables enforces ROADMAP aim 2's
// contract: the fenced block under "Full measured tables" in
// EXPERIMENTS.md is the verbatim seed-0 output of `go run ./cmd/benchmark`.
// On a mismatch either a change moved a table (explain it) or the block
// went stale (re-take it from the command's output).
func TestExperimentsDocMatchesSeedZeroTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment (~4 s)")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "## Full measured tables")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Full measured tables" section`)
	}
	_, rest, _ = strings.Cut(rest, "```\n")
	block, _, ok := strings.Cut(rest, "\n```")
	if !ok {
		t.Fatal("the section has no fenced block")
	}
	var gen bytes.Buffer
	if err := RunAll(&gen, Params{}); err != nil {
		t.Fatal(err)
	}
	want := strings.TrimRight(gen.String(), "\n")
	if block == want {
		return
	}
	got, run := strings.Split(block, "\n"), strings.Split(want, "\n")
	if len(got) != len(run) {
		t.Errorf("the block has %d lines, the run prints %d", len(got), len(run))
	}
	for i := 0; i < len(got) && i < len(run); i++ {
		if got[i] != run[i] {
			t.Errorf("line %d of the block\n doc: %s\n run: %s", i+1, got[i], run[i])
		}
	}
}
