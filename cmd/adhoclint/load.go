package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analyzed package: parsed syntax for every file the default
// build compiles (build constraints and _GOOS/_GOARCH suffixes applied, as
// `go build` does) plus type information for the non-test files. Test
// files are carried along so guarded-field covers them too; the
// type-dependent rules only look at production files.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File    // non-test files, type-checked
	TestFiles  []*ast.File    // *_test.go files, syntactic rules only
	Info       *types.Info    // semantic info for Files (nil if checking failed)
	Types      *types.Package // the checked package (nil if checking failed)
	TypeErrs   []error
}

// AllFiles returns production files followed by test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// loader parses and type-checks packages of one module. Imports inside the
// module are resolved recursively from the module tree; everything else is
// delegated to the stdlib source importer, so the tool needs no
// dependencies beyond the standard library.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	cache   map[string]*loaded
}

type loaded struct {
	pkg *Package
	typ *types.Package
	err error
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*loaded{},
	}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// packageDirs lists every directory under root that contains .go files,
// skipping testdata, vendor, hidden and underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Import resolves an import path for the type checker.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		got, err := l.load(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		if got.typ == nil {
			return nil, fmt.Errorf("type-checking %s failed", path)
		}
		return got.typ, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir (cached by import path).
func (l *loader) load(dir, importPath string) (*loaded, error) {
	if got, ok := l.cache[importPath]; ok {
		return got, nil
	}
	got := &loaded{}
	l.cache[importPath] = got

	entries, err := os.ReadDir(dir)
	if err != nil {
		got.err = err
		return got, err
	}
	p := &Package{ImportPath: importPath, Dir: dir, Fset: l.fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if match, merr := build.Default.MatchFile(dir, name); merr != nil || !match {
			continue
		}
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			got.err = perr
			return got, perr
		}
		if strings.HasSuffix(name, "_test.go") {
			p.TestFiles = append(p.TestFiles, f)
		} else {
			p.Files = append(p.Files, f)
		}
	}
	got.pkg = p
	if len(p.Files) == 0 {
		return got, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	typ, cerr := cfg.Check(importPath, l.fset, p.Files, info)
	if cerr == nil || typ != nil {
		got.typ = typ
		p.Info = info
		p.Types = typ
	}
	return got, nil
}
