package main

import (
	"go/ast"
	"sort"
)

// Program is the view every rule analyzes: the packages selected on the
// command line, loaded and type-checked against one shared FileSet, plus
// one lazily built, cached layer of facts about them (see regions.go and
// directives.go). Packages that were pulled in only as dependencies
// contribute type information and directives but are not themselves
// reported on.
type Program struct {
	Pkgs   []*Package
	loader *loader

	// The fact layer: each field is built on first use by the accessor of
	// the same name and shared by every rule that reads it.
	directives *directiveIndex
	locks      map[*ast.FuncDecl]*lockFacts
}

// newProgram assembles a program over the analyzed packages. The loader
// must be the one that loaded them (its cache resolves cross-package
// types).
func newProgram(l *loader, pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, loader: l}
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
