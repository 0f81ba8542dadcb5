package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureGolden is the refactor oracle: the full sorted text output of
// every rule over every testdata/src fixture — each loaded under internal/
// so every rule is in scope — is pinned byte for byte, so a witness chain
// or message tail cannot drift behind the `want "fragment"` matching of
// the per-rule tests. Regenerate with UPDATE_GOLDEN=1 after
// reviewing the diff.
func TestFixtureGolden(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "# %s\n", e.Name())
		for _, d := range lintFixture(t, e.Name(), "adhocshare/internal/fixture/"+e.Name(), nil) {
			sb.WriteString(filepath.ToSlash(d.String()))
			sb.WriteByte('\n')
		}
	}
	goldenPath := filepath.Join("testdata", "fixtures.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("fixture diagnostics differ from %s; run with UPDATE_GOLDEN=1 after reviewing the diff.\ngot:\n%s", goldenPath, sb.String())
	}
}
