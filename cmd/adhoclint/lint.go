package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [rule] message".
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// rule is one entry of the rule table: the driver, -list, -rules
// validation and the SARIF metadata all read the set of rules from here.
// A rule's run function returns bare diagnostics; the driver stamps them
// with the rule's name.
type rule struct {
	name, doc string
	run       func(*Program) []Diagnostic
}

// rules lists every rule in reporting order.
var rules = []rule{
	{"guarded-field", "a struct's mutex guards the fields declared after it (a write needs Lock); no method writes a node type's fields before its first mutex; …Locked methods run under the receiver's lock", checkGuardedFields},
	{"determinism", "no wall-clock (time.Now, time.Sleep, ...) or global math/rand in internal/ non-test code, and no `go` statement in internal/ or cmd/ non-test code", checkDeterminism},
	{"discarded-error", "no `_ =` discards of error values outside tests", checkDiscardedErrors},
}

// lint runs every enabled rule (nil = all) over the program and returns
// the findings sorted by position, with //adhoclint:ignore directives
// applied.
func lint(prog *Program, enabled map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, r := range rules {
		if enabled != nil && !enabled[r.name] {
			continue
		}
		for _, d := range r.run(prog) {
			d.Rule = r.name
			diags = append(diags, d)
		}
	}
	diags = prog.Directives().applyIgnores(diags)
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Rule != diags[j].Rule {
			return diags[i].Rule < diags[j].Rule
		}
		return diags[i].Msg < diags[j].Msg
	})
}

// diagAt builds a diagnostic at a token position; the driver fills in the
// rule name.
func diagAt(p *Package, pos token.Pos, msg string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Msg: msg}
}

func isRuleName(s string) bool {
	for _, r := range rules {
		if r.name == s {
			return true
		}
	}
	return false
}

// internalPackage reports whether the package lives under internal/ —
// the scope of the determinism rule's clock and randomness checks.
func internalPackage(p *Package) bool {
	return strings.Contains(p.ImportPath, "/internal/") ||
		strings.HasSuffix(p.ImportPath, "/internal")
}

// cmdPackage reports whether the package lives under the module's cmd/
// tree — included in the determinism rule's `go` check.
func cmdPackage(p *Package, modPath string) bool {
	return strings.HasPrefix(p.ImportPath, modPath+"/cmd/")
}

// eachFuncDecl visits every function declaration with a body.
func eachFuncDecl(files []*ast.File, visit func(fn *ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// recvName returns the receiver identifier of a method declaration, or ""
// for functions and anonymous receivers.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// recvTypeName returns the base type name of a method's receiver
// (dereferencing a pointer receiver), or "".
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// generic receivers look like T[P]
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
