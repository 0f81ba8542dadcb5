package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The payload-size analysis keeps SizeBytes honest: the traffic totals the
// experiments report (paper Sect. V's transmission/response-time trade-off)
// are sums of SizeBytes results, so a field that a SizeBytes method forgets
// silently underreports every experiment. Each SizeBytes method with a
// struct receiver must mention every field of that struct somewhere in its
// body; a deliberately uncounted field is declared with an
// //adhoclint:ignore payload-size comment carrying the reason.

// checkPayloadSizes audits every SizeBytes method of the analyzed packages.
func checkPayloadSizes(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, n := range prog.Funcs().sorted {
		if !n.analyzed || n.decl.Name.Name != "SizeBytes" {
			continue
		}
		named := receiverNamed(n.obj)
		if named == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue // e.g. simnet.Bytes: nothing to cross-check
		}
		// trace.TraceContext is zero-width wire metadata by contract (see
		// observability_knowledge.go): its own SizeBytes returns 0 on purpose, and
		// payload structs need not count TraceContext-typed fields.
		if isTraceContext(named, prog.modPath) {
			continue
		}
		mentioned := fieldMentions(n.decl)
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || mentioned[f.Name()] || isTraceContext(f.Type(), prog.modPath) {
				continue
			}
			missing = append(missing, f.Name())
		}
		if len(missing) > 0 {
			diags = append(diags, diagAt(n.pkg, n.decl.Pos(),
				fmt.Sprintf("SizeBytes of %s does not account for field%s %s",
					named.Obj().Name(), plural(missing), strings.Join(missing, ", "))))
		}
	}
	return diags
}

// fieldMentions collects every selector name used in the method body: a
// field counted via `r.Field`, ranged over, or passed along mentions its
// name as a selector.
func fieldMentions(decl *ast.FuncDecl) map[string]bool {
	mentioned := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			mentioned[sel.Sel.Name] = true
		}
		return true
	})
	return mentioned
}

func plural(items []string) string {
	if len(items) == 1 {
		return ""
	}
	return "s"
}

// receiverNamed resolves a method's receiver to its named type.
func receiverNamed(obj *types.Func) *types.Named {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
