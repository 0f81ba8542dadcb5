package testutil

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// CheckGolden compares got against testdata/<name> in the calling test's
// package directory; UPDATE_GOLDEN=1 writes got there instead.
func CheckGolden(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match the golden file; run with UPDATE_GOLDEN=1 after reviewing the diff.\ngot:\n%s", name, got)
	}
}
