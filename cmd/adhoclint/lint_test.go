package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture packages under testdata/src each exercise one rule. Expected
// findings are annotated in the fixture source with `// want "fragment"`
// comments: every diagnostic on that line must contain the fragment, and
// every fragment must be matched by exactly one diagnostic.

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

func only(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// collectWants maps "file:line" to the expected message fragments there.
func collectWants(p *Package) map[string][]string {
	wants := map[string][]string{}
	for _, f := range p.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := p.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// loadFixtureProgram parses and type-checks one testdata package under a
// synthetic import path (so the internal/ scoping of the rules can be
// exercised without moving fixtures into the real tree) and wraps it in a
// Program; dependencies resolved through the loader are visible to the
// rules but not reported on.
func loadFixtureProgram(t *testing.T, name, importPath string) *Program {
	t.Helper()
	modRoot, modPath, err := findModule(".")
	if err != nil {
		t.Fatalf("findModule: %v", err)
	}
	l := newLoader(modRoot, modPath)
	got, err := l.load(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(got.pkg.TypeErrs) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, got.pkg.TypeErrs)
	}
	return newProgram(l, []*Package{got.pkg})
}

// lintFixture runs the enabled rules (nil = all) over one fixture package.
func lintFixture(t *testing.T, name, importPath string, enabled map[string]bool) []Diagnostic {
	t.Helper()
	return lint(loadFixtureProgram(t, name, importPath), enabled)
}

func checkFixture(t *testing.T, name, importPath string, enabled map[string]bool) {
	t.Helper()
	prog := loadFixtureProgram(t, name, importPath)
	matchWants(t, collectWants(prog.Pkgs[0]), lint(prog, enabled))
}

// matchWants pairs each diagnostic with one want fragment on its line.
func matchWants(t *testing.T, wants map[string][]string, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		frags := wants[key]
		matched := -1
		for i, frag := range frags {
			if strings.Contains(d.Msg, frag) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(frags[:matched], frags[matched+1:]...)
	}
	for key, frags := range wants {
		for _, frag := range frags {
			t.Errorf("%s: expected a diagnostic containing %q, got none", key, frag)
		}
	}
}

func TestGuardedFieldRule(t *testing.T) {
	checkFixture(t, "guarded", "adhocshare/fixture/guarded", only("guarded-field"))
}

// Regression for the rule's one finding on the real tree: a node that
// installed its adaptive-state pointer with a plain store while HandleCall
// read it — overlay.IndexNode.hot before hotMu — must be flagged at the
// store, and only there.
func TestGuardedFieldCatchesLatePointerInstall(t *testing.T) {
	var got []Diagnostic
	for _, d := range lintFixture(t, "guarded", "adhocshare/fixture/guarded", only("guarded-field")) {
		if filepath.Base(d.Pos.Filename) == "hotinstall.go" {
			got = append(got, d)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one finding in hotinstall.go, got %d: %v", len(got), got)
	}
	if want := "n.hot is set at construction (node type AdaptiveNode, declared before any mutex) but written in EnableAdaptive"; got[0].Msg != want {
		t.Errorf("finding = %q, want %q", got[0].Msg, want)
	}
}

// The data races the retired racefree rule proved absent — an unguarded
// write against a handler read, a write reached through a helper, a write
// under the wrong mutex, a late pointer install on a node type — live in
// node.go and hotinstall.go of the guarded fixture; guarded-field alone
// must still flag every one of them, and nothing else there.
func TestRaceFreeRule(t *testing.T) {
	prog := loadFixtureProgram(t, "guarded", "adhocshare/fixture/guarded")
	inScope := func(file string) bool {
		base := filepath.Base(file)
		return base == "node.go" || base == "hotinstall.go"
	}
	wants := map[string][]string{}
	for key, frags := range collectWants(prog.Pkgs[0]) {
		if inScope(strings.SplitN(key, ":", 2)[0]) {
			wants[key] = frags
		}
	}
	var diags []Diagnostic
	for _, d := range lint(prog, only("guarded-field")) {
		if inScope(d.Pos.Filename) {
			diags = append(diags, d)
		}
	}
	for _, frag := range []string{"n.count is guarded by n.statMu", "accessed in bump", "n.gauge is guarded by n.aMu", "written in EnableAdaptive"} {
		found := false
		for _, d := range diags {
			found = found || strings.Contains(d.Msg, frag)
		}
		if !found {
			t.Errorf("no guarded-field finding containing %q", frag)
		}
	}
	matchWants(t, wants, diags)
}

func TestDeterminismRule(t *testing.T) {
	checkFixture(t, "determinism", "adhocshare/internal/fixture/determinism", only("determinism"))
}

// The determinism rule covers internal/ packages and, for `go` statements,
// cmd/ packages: the same fixture loaded under neither tree must be silent.
func TestDeterminismRuleSkipsNonInternal(t *testing.T) {
	if diags := lintFixture(t, "determinism", "adhocshare/fixture/determinism", only("determinism")); len(diags) != 0 {
		t.Errorf("non-internal package should be exempt, got %d diagnostics: %v", len(diags), diags)
	}
}

// Under cmd/ the determinism rule reports only the fixture's `go`
// statements: a main package may read the wall clock.
func TestDeterminismRuleGoStatementsUnderCmd(t *testing.T) {
	diags := lintFixture(t, "determinism", "adhocshare/cmd/fixture/determinism", only("determinism"))
	if len(diags) != 4 {
		t.Errorf("want the fixture's 4 go statements, got %d:\n%s", len(diags), diagDump(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Msg, "go statement in") {
			t.Errorf("clock or randomness finding outside internal/: %s", d)
		}
	}
}

func TestDiscardedErrorRule(t *testing.T) {
	checkFixture(t, "discarderr", "adhocshare/fixture/discarderr", only("discarded-error"))
}

// The clean fixture follows every convention (including one violation
// suppressed via //adhoclint:ignore) and must produce zero findings with
// all rules enabled — loaded under an internal path so the determinism
// rule is in scope and the directive is what silences it.
func TestCleanFixtureAllRules(t *testing.T) {
	if diags := lintFixture(t, "clean", "adhocshare/internal/fixture/clean", nil); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// The loader keeps the files the default build compiles: the constrained
// fixture declares Mutex once per build tag, and its unguarded write is
// flagged through the alias the untagged file declares.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	prog := loadFixtureProgram(t, "constrained", "adhocshare/fixture/constrained")
	var names []string
	for _, f := range prog.Pkgs[0].AllFiles() {
		names = append(names, filepath.Base(prog.Pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	if got := strings.Join(names, " "); got != "mutex.go use.go" {
		t.Errorf("loaded files %q, want the untagged pair", got)
	}
	matchWants(t, collectWants(prog.Pkgs[0]), lint(prog, only("guarded-field")))
}

// Every rule of the table must be clean on the production tree: each
// convention the linter enforces either holds or carries a reasoned
// directive (the dynamic corroborators — the -race matrix, the invariant
// monitors, the fuzz targets — are listed per rule in DESIGN.md §7).
func TestAllRulesCleanOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	var buf strings.Builder
	n, err := run([]string{"./..."}, nil, "", &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("expected zero findings on the real tree, got %d:\n%s", n, buf.String())
	}
}

func diagDump(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// The -list output is pinned by a golden file so rule renames/additions
// are deliberate.
func TestListGolden(t *testing.T) {
	var buf strings.Builder
	printRules(&buf)
	goldenPath := filepath.Join("testdata", "list.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("-list output differs from %s:\n got:\n%s\nwant:\n%s", goldenPath, buf.String(), want)
	}
}

func TestParseRules(t *testing.T) {
	if m, err := parseRules(""); err != nil || m != nil {
		t.Errorf("parseRules(\"\") = %v, %v; want nil, nil", m, err)
	}
	m, err := parseRules("determinism, discarded-error")
	if err != nil {
		t.Fatalf("parseRules: %v", err)
	}
	if !m["determinism"] || !m["discarded-error"] || len(m) != 2 {
		t.Errorf("parseRules picked wrong rules: %v", m)
	}
	if _, err := parseRules("no-such-rule"); err == nil {
		t.Errorf("parseRules accepted an unknown rule")
	}
}
