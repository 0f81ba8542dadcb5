package main

import (
	"fmt"
	"go/ast"
	"strconv"
)

// bannedTimeFuncs are wall-clock entry points. Everything under internal/
// runs against the simnet virtual clock (simnet.VTime / simnet.Clock) so
// that EXPERIMENTS.md tables reproduce bit-for-bit; real time may only
// enter through main packages or tests.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// bannedRandFuncs are the package-level math/rand convenience functions,
// which draw from the unseedable global source. Randomness must flow
// through an injected seeded *rand.Rand (rand.New / rand.NewSource /
// rand.NewZipf stay allowed — they build such streams).
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// checkDeterminism forbids the sources of nondeterminism in non-test code:
// wall-clock and global-randomness calls under internal/, and `go`
// statements under internal/ and cmd/. Production code runs on its
// caller's goroutine (simnet.Parallel runs its branches in index order),
// so a goroutine there could only reorder work off the virtual clock;
// goroutines belong to tests that drive a deployment from several clients.
func checkDeterminism(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, p := range prog.Pkgs {
		internal := internalPackage(p)
		if !internal && !cmdPackage(p, prog.loader.modPath) {
			continue
		}
		for _, f := range p.Files {
			timeName, timeOK := importName(f, "time")
			randName, randOK := importName(f, "math/rand")
			timeOK, randOK = timeOK && internal, randOK && internal
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					diags = append(diags, diagAt(p, g.Pos(),
						fmt.Sprintf("go statement in %s: production code runs on its caller's goroutine — fan out with simnet.Parallel; only tests start goroutines",
							p.ImportPath)))
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case timeOK && pkg.Name == timeName && bannedTimeFuncs[sel.Sel.Name]:
					diags = append(diags, diagAt(p, call.Pos(),
						fmt.Sprintf("time.%s in internal package %s: use the simnet virtual clock (simnet.VTime / simnet.Clock) so runs stay reproducible",
							sel.Sel.Name, p.ImportPath)))
				case randOK && pkg.Name == randName && bannedRandFuncs[sel.Sel.Name]:
					diags = append(diags, diagAt(p, call.Pos(),
						fmt.Sprintf("global math/rand.%s in internal package %s: use an injected seeded *rand.Rand",
							sel.Sel.Name, p.ImportPath)))
				}
				return true
			})
		}
	}
	return diags
}

// importName resolves the local name a file imports the given path under;
// ok is false when the file does not import it (or dot-imports it, which
// the rule does not attempt to track).
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		got, err := strconv.Unquote(imp.Path.Value)
		if err != nil || got != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return "", false
			}
			return imp.Name.Name, true
		}
		// default package name: last path element ("rand" for math/rand)
		name := path
		for i := len(path) - 1; i >= 0; i-- {
			if path[i] == '/' {
				name = path[i+1:]
				break
			}
		}
		return name, true
	}
	return "", false
}
