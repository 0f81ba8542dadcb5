// Command adhoclint is the project's static-analysis suite. It enforces
// the locking, determinism and error conventions of the overlay/DQP core
// (documented in DESIGN.md §7); `adhoclint -list` prints the rules with
// their one-line descriptions, straight from the rule table in lint.go.
//
// Usage:
//
//	go run ./cmd/adhoclint ./...            # whole module
//	go run ./cmd/adhoclint ./internal/dqp   # one package
//	go run ./cmd/adhoclint -rules determinism,discarded-error ./...
//	go run ./cmd/adhoclint -format sarif ./... > adhoclint.sarif
//	go run ./cmd/adhoclint -list            # print the rules and exit
//
// Diagnostics print as "file:line: [rule] message" (or as SARIF 2.1.0 with
// -format sarif); the exit status is non-zero when any diagnostic is
// reported. A finding can be suppressed with a trailing or preceding
// comment:
//
//	//adhoclint:ignore determinism test-support helper needs wall time
//
// The tool is built only on go/parser, go/ast and go/types — no module
// dependencies — so it runs anywhere the repo builds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	rulesFlag := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	formatFlag := flag.String("format", "text", "output format: text or sarif")
	listFlag := flag.Bool("list", false, "print the rules with their descriptions and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adhoclint [-rules r1,r2] [-format text|sarif] [-list] [packages]\n\nrules: %s\n", strings.Join(ruleNames(), ", "))
	}
	flag.Parse()

	if *listFlag {
		printRules(os.Stdout)
		return
	}
	if *formatFlag != "text" && *formatFlag != "sarif" {
		fmt.Fprintf(os.Stderr, "adhoclint: unknown format %q (have: text, sarif)\n", *formatFlag)
		os.Exit(2)
	}
	enabled, err := parseRules(*rulesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhoclint:", err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	n, err := run(args, enabled, *formatFlag, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhoclint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "adhoclint: %d diagnostic(s)\n", n)
		os.Exit(1)
	}
}

// printRules writes every rule with its one-line description — the -list
// output, pinned by a golden test.
func printRules(w io.Writer) {
	for _, r := range rules {
		fmt.Fprintf(w, "%-18s %s\n", r.name, r.doc)
	}
}

func ruleNames() []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.name
	}
	return names
}

func parseRules(csv string) (map[string]bool, error) {
	if csv == "" {
		return nil, nil // nil = all rules
	}
	enabled := map[string]bool{}
	for _, r := range strings.Split(csv, ",") {
		r = strings.TrimSpace(r)
		if !isRuleName(r) {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", r, strings.Join(ruleNames(), ", "))
		}
		enabled[r] = true
	}
	return enabled, nil
}

// run lints the packages selected by the argument patterns as one program
// and writes diagnostics to w, returning how many were reported.
func run(args []string, enabled map[string]bool, format string, w io.Writer) (int, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		return 0, err
	}
	var dirs []string
	seen := map[string]bool{}
	for _, arg := range args {
		var got []string
		switch {
		case arg == "./..." || arg == "...":
			got, err = packageDirs(modRoot)
		case strings.HasSuffix(arg, "/..."):
			got, err = packageDirs(filepath.Join(cwd, strings.TrimSuffix(arg, "/...")))
		default:
			got = []string{filepath.Join(cwd, arg)}
		}
		if err != nil {
			return 0, err
		}
		for _, d := range got {
			abs, aerr := filepath.Abs(d)
			if aerr != nil {
				return 0, aerr
			}
			if !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}

	l := newLoader(modRoot, modPath)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, rerr := filepath.Rel(modRoot, dir)
		if rerr != nil || strings.HasPrefix(rel, "..") {
			return 0, fmt.Errorf("package %s is outside module %s", dir, modRoot)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		got, lerr := l.load(dir, importPath)
		if lerr != nil {
			return 0, fmt.Errorf("loading %s: %w", importPath, lerr)
		}
		pkg := got.pkg
		if pkg == nil {
			continue
		}
		for _, terr := range pkg.TypeErrs {
			fmt.Fprintf(os.Stderr, "adhoclint: type-check %s: %v\n", importPath, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint(newProgram(l, pkgs), enabled)

	// report module-relative paths to keep output stable across checkouts
	for i := range diags {
		if rel, e := filepath.Rel(modRoot, diags[i].Pos.Filename); e == nil {
			diags[i].Pos.Filename = rel
		}
	}

	if format == "sarif" {
		if err := writeSARIF(w, diags); err != nil {
			return len(diags), err
		}
		return len(diags), nil
	}
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
	return len(diags), nil
}
