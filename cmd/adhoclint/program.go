package main

import (
	"go/ast"
	"sort"
)

// Program is the whole-program view every rule analyzes: the packages
// selected on the command line, loaded and type-checked against one shared
// FileSet, plus one lazily built, cached layer of facts about them (see
// callgraph.go, regions.go and directives.go). Packages that
// were pulled in only as dependencies contribute type information and
// facts but are not themselves reported on.
type Program struct {
	Pkgs    []*Package
	loader  *loader
	modPath string

	// The fact layer: each field is built on first use by the accessor of
	// the same name and shared by every rule that reads it.
	loaded     []*Package
	analyzed   map[*Package]bool
	funcs      *funcIndex
	directives *directiveIndex
	locks      map[*ast.FuncDecl]*lockFacts
	lockFinds  *lockFindings
}

// newProgram assembles a program over the analyzed packages. The loader
// must be the one that loaded them (its cache resolves cross-package
// types).
func newProgram(l *loader, pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, loader: l, modPath: l.modPath}
}

// allPackages returns every package the loader has parsed, sorted by
// import path, whether or not it type-checked.
func (prog *Program) allPackages() []*Package {
	paths := make([]string, 0, len(prog.loader.cache))
	for path, got := range prog.loader.cache {
		if got.pkg != nil {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, prog.loader.cache[path].pkg)
	}
	return out
}

// Loaded returns every successfully checked module package the loader has
// seen — the analyzed packages plus their module-internal dependencies —
// sorted by import path. Facts are collected over this wider set so that
// linting one package still sees the handlers, constants and directives
// declared elsewhere; diagnostics are only attached to analyzed packages.
func (prog *Program) Loaded() []*Package {
	if prog.loaded == nil {
		for _, p := range prog.allPackages() {
			if p.Info != nil {
				prog.loaded = append(prog.loaded, p)
			}
		}
	}
	return prog.loaded
}

// Analyzed reports whether diagnostics may be reported on the package.
func (prog *Program) Analyzed(p *Package) bool {
	if prog.analyzed == nil {
		prog.analyzed = make(map[*Package]bool, len(prog.Pkgs))
		for _, p := range prog.Pkgs {
			prog.analyzed[p] = true
		}
	}
	return prog.analyzed[p]
}
