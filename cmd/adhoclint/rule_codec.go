package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The codec-coverage analysis (rule "codec") cross-checks the payload
// codec against the wire-type inventory of all RPC vocabularies. A wire
// type is any concrete module-declared type that travels as a request or
// response: asserted in a HandleCall dispatch arm, passed to or asserted
// from a Network.Call/Send/Transfer site. For every wire type the rule
// demands:
//
//   - the type is gob-registered in the codec package (the package that
//     declares EncodePayload), so the reflection fallback can always carry
//     it behind the Payload interface;
//   - no unexported direct fields — gob silently drops them, truncating
//     the payload without an error;
//   - either a hand-written binary codec (an EncodeBinary(dst []byte)
//     []byte / DecodeBinary([]byte) ([]byte, error) pair whose bodies
//     mention every direct field, wired into the codec package's
//     binaryTag and decodeBinary dispatch functions) or an explicit
//     //adhoclint:gobfallback <reason> directive on the type declaration
//     acknowledging that the type stays on reflection.
//
// The field-coverage half works like the payload-size rule: adding a field
// to a wire struct without teaching both codec methods about it is a build
// break under lint, not a silent wire truncation. The checks are gated on
// the program actually containing a codec package, so unrelated trees and
// fixtures without one stay quiet.

// Names of the codec package's dispatch functions a binary type must
// appear in.
const (
	binaryTagFunc    = "binaryTag"
	decodeBinaryFunc = "decodeBinary"
)

// checkCodec runs the codec rule over the program.
func checkCodec(prog *Program) []Diagnostic {
	c := &codecChecker{prog: prog}
	c.collectWireTypes()
	c.collectCodecPackages()
	if len(c.codecPkgs) == 0 {
		return nil
	}
	c.checkTypes()
	return c.diags
}

type codecChecker struct {
	prog *Program

	wire      []*types.Named // deduplicated, sorted by display name
	codecPkgs []*Package     // packages declaring EncodePayload

	registered map[*types.Named]bool // gob.Register'd in a codec package
	inTag      map[*types.Named]bool // mentioned in binaryTag
	inDecode   map[*types.Named]bool // mentioned in decodeBinary

	diags []Diagnostic
}

// collectWireTypes builds the wire-type inventory from the same handler
// and call-site facts the rpc-protocol rule uses.
func (c *codecChecker) collectWireTypes() {
	seen := map[*types.Named]bool{}
	add := func(t types.Type) {
		named := moduleNamed(t, c.prog.modPath)
		if named != nil && !seen[named] {
			seen[named] = true
			c.wire = append(c.wire, named)
		}
	}
	for _, h := range c.prog.Handlers() {
		for _, dc := range h.cases {
			if len(dc.values) == 0 {
				continue
			}
			for _, t := range dc.reqTypes {
				add(t)
			}
			add(dc.respType)
		}
	}
	for _, fc := range c.prog.FabricCalls() {
		add(fc.reqType)
		add(fc.respAssert)
	}
	sort.Slice(c.wire, func(i, j int) bool {
		return typeDisplay(c.wire[i]) < typeDisplay(c.wire[j])
	})
}

// moduleNamed strips pointers and returns the named type when it is
// declared inside the module; nil otherwise.
func moduleNamed(t types.Type, modPath string) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if !strings.HasPrefix(named.Obj().Pkg().Path(), modPath) {
		return nil
	}
	return named
}

// collectCodecPackages finds the packages declaring a top-level
// EncodePayload function and records, per wire type, whether it is
// gob-registered there and mentioned in the binaryTag/decodeBinary
// dispatch bodies.
func (c *codecChecker) collectCodecPackages() {
	c.registered = map[*types.Named]bool{}
	c.inTag = map[*types.Named]bool{}
	c.inDecode = map[*types.Named]bool{}
	wireSet := map[*types.Named]bool{}
	for _, n := range c.wire {
		wireSet[n] = true
	}
	for _, p := range c.prog.Loaded() {
		if p.Types == nil || p.Types.Scope().Lookup("EncodePayload") == nil {
			continue
		}
		c.codecPkgs = append(c.codecPkgs, p)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if callee, _ := staticCallee(p.Info, n); callee != nil &&
						callee.Pkg() != nil && callee.Pkg().Path() == "encoding/gob" &&
						callee.Name() == "Register" && len(n.Args) == 1 {
						if named := moduleNamed(p.Info.TypeOf(n.Args[0]), c.prog.modPath); named != nil {
							c.registered[named] = true
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil || n.Body == nil {
						return true
					}
					var mark map[*types.Named]bool
					switch n.Name.Name {
					case binaryTagFunc:
						mark = c.inTag
					case decodeBinaryFunc:
						mark = c.inDecode
					default:
						return true
					}
					ast.Inspect(n.Body, func(e ast.Node) bool {
						expr, ok := e.(ast.Expr)
						if !ok {
							return true
						}
						tv, ok := p.Info.Types[expr]
						if !ok {
							return true
						}
						if named := moduleNamed(tv.Type, c.prog.modPath); named != nil && wireSet[named] {
							mark[named] = true
						}
						return true
					})
				}
				return true
			})
		}
	}
}

// checkTypes applies the per-type codec requirements.
func (c *codecChecker) checkTypes() {
	for _, named := range c.wire {
		p := c.pkgOf(named)
		if p == nil || !c.prog.Analyzed(p) {
			continue
		}
		pos := named.Obj().Pos()
		name := typeDisplay(named)
		// The //adhoclint:gobfallback <reason> directive sits on the type
		// declaration's line or the line above it.
		fallback := c.prog.Directives().at(p, pos, "gobfallback")

		if !c.registered[named] {
			c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
				"wire type %s is not gob-registered in the payload codec; DecodePayload cannot carry it behind the Payload interface", name)))
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					c.diags = append(c.diags, diagAt(p, f.Pos(), fmt.Sprintf(
						"wire type %s has unexported field %s, which gob silently drops; export it or move it off the wire", name, f.Name())))
				}
			}
		}

		enc, dec := methodByName(named, "EncodeBinary"), methodByName(named, "DecodeBinary")
		if enc == nil {
			if fallback == nil {
				c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
					"wire type %s rides gob reflection; give it an EncodeBinary/DecodeBinary pair or document why not with //adhoclint:gobfallback <reason>", name)))
			} else if fallback.bare() {
				c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
					"wire type %s has a bare //adhoclint:gobfallback directive; state the reason it stays on reflection", name)))
			}
			continue
		}
		if fallback != nil {
			c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
				"wire type %s has both a binary codec and a //adhoclint:gobfallback directive; drop one", name)))
		}
		encOK, decOK := encodeBinaryShape(enc), false
		if !encOK {
			c.diags = append(c.diags, diagAt(p, enc.Pos(), fmt.Sprintf(
				"%s.EncodeBinary must have signature EncodeBinary(dst []byte) []byte", name)))
		}
		if dec == nil {
			c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
				"wire type %s has EncodeBinary but no DecodeBinary; the codec cannot reverse it", name)))
		} else if decOK = decodeBinaryShape(dec); !decOK {
			c.diags = append(c.diags, diagAt(p, dec.Pos(), fmt.Sprintf(
				"%s.DecodeBinary must have signature DecodeBinary(b []byte) ([]byte, error)", name)))
		}
		if !c.inTag[named] {
			c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
				"wire type %s has a binary codec but no case in the codec package's %s dispatch; it would silently ride gob", name, binaryTagFunc)))
		}
		if !c.inDecode[named] {
			c.diags = append(c.diags, diagAt(p, pos, fmt.Sprintf(
				"wire type %s has a binary codec but no case in the codec package's %s dispatch; its frames would be undecodable", name, decodeBinaryFunc)))
		}
		// Field coverage only makes sense for well-shaped codec methods.
		if st, ok := named.Underlying().(*types.Struct); ok {
			if encOK {
				c.checkFieldCoverage(named, st, enc)
			}
			if decOK {
				c.checkFieldCoverage(named, st, dec)
			}
		}
	}
}

// checkFieldCoverage demands that a codec method's body mention every
// direct field of the wire struct, payload-size-style. The TraceContext
// field gets no exemption here: it costs zero modeled bytes but must still
// cross the wire for causality.
func (c *codecChecker) checkFieldCoverage(named *types.Named, st *types.Struct, m *types.Func) {
	d, ok := c.prog.Funcs().byObj[m]
	if !ok {
		return
	}
	mentioned := fieldMentions(d.decl)
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !mentioned[f.Name()] {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) > 0 {
		c.diags = append(c.diags, diagAt(d.pkg, d.decl.Pos(), fmt.Sprintf(
			"%s.%s does not mention field%s %s of %s; the binary wire form would drop %s",
			typeDisplay(named), m.Name(), plural(missing), strings.Join(missing, ", "),
			typeDisplay(named), pronoun(len(missing)))))
	}
}

func pronoun(n int) string {
	if n == 1 {
		return "it"
	}
	return "them"
}

// pkgOf maps a named type back to its loaded Package.
func (c *codecChecker) pkgOf(named *types.Named) *Package {
	for _, p := range c.prog.Loaded() {
		if p.Types == named.Obj().Pkg() {
			return p
		}
	}
	return nil
}

// methodByName finds an explicitly declared method of the named type.
func methodByName(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// encodeBinaryShape checks for EncodeBinary(dst []byte) []byte.
func encodeBinaryShape(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
}

// decodeBinaryShape checks for DecodeBinary(b []byte) ([]byte, error).
func decodeBinaryShape(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	return isByteSlice(sig.Params().At(0).Type()) &&
		isByteSlice(sig.Results().At(0).Type()) &&
		isErrorType(sig.Results().At(1).Type())
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
