package main

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A directive is one //adhoclint:name(args) rest comment. Every rule that
// reads directives — ignore, wireimmutable, faultpath, hotexempt — reads
// them from the one index built here.
type directive struct {
	name string // "ignore", "faultpath", ...
	args string // parenthesized argument text, "" when absent
	rest string // free text after the name and arguments
	pkg  *Package
	pos  token.Pos
	test bool // sits in a _test.go file
	used bool // some declaration or call site looked it up
}

// bare reports whether the directive carries neither arguments nor text.
func (d *directive) bare() bool { return d.args == "" && d.rest == "" }

// lineKey identifies one source line.
type lineKey struct {
	file string
	line int
}

// directiveIndex holds every directive of every loaded package by the
// line it sits on (a line holds at most one // comment).
type directiveIndex struct {
	byLine map[lineKey]*directive
}

// Directives returns (building on first use) the directive index: the one
// walk over the comments of every loaded file, test files included.
func (prog *Program) Directives() *directiveIndex {
	if prog.directives != nil {
		return prog.directives
	}
	ix := &directiveIndex{byLine: map[lineKey]*directive{}}
	for _, p := range prog.allPackages() {
		for i, f := range p.AllFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "adhoclint:")
					if !ok {
						continue
					}
					d := &directive{pkg: p, pos: c.Pos(), test: i >= len(p.Files)}
					d.name, d.args, d.rest = scanNameArgs(text)
					pos := p.Fset.Position(c.Pos())
					ix.byLine[lineKey{pos.Filename, pos.Line}] = d
				}
			}
		}
	}
	prog.directives = ix
	return ix
}

// scanNameArgs splits "name(args) rest": an identifier, an optional
// balanced parenthesized argument text (which may itself contain commas
// and parentheses), and the trimmed remainder. It is the one parser behind
// the directive grammar and the rule list of an ignore directive.
func scanNameArgs(s string) (name, args, rest string) {
	i := 0
	for i < len(s) && isDirectiveIdentChar(s[i]) {
		i++
	}
	name, s = s[:i], strings.TrimLeft(s[i:], " \t")
	if !strings.HasPrefix(s, "(") {
		return name, "", strings.TrimSpace(s)
	}
	depth, end := 0, len(s)
	for j := 0; j < len(s); j++ {
		if s[j] == '(' {
			depth++
		}
		if s[j] == ')' {
			depth--
			if depth == 0 {
				end = j
				break
			}
		}
	}
	args = strings.TrimSpace(s[1:end])
	if end < len(s) {
		rest = strings.TrimSpace(s[end+1:])
	}
	return name, args, rest
}

func isDirectiveIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

// onLine returns the directive of the given name on one source line,
// marking it used.
func (ix *directiveIndex) onLine(p *Package, pos token.Pos, off int, name string) *directive {
	position := p.Fset.Position(pos)
	d := ix.byLine[lineKey{position.Filename, position.Line + off}]
	if d == nil || d.name != name {
		return nil
	}
	d.used = true
	return d
}

// at returns the directive of the given name attached to a position — on
// the same line or the line directly above.
func (ix *directiveIndex) at(p *Package, pos token.Pos, name string) *directive {
	if d := ix.onLine(p, pos, 0, name); d != nil {
		return d
	}
	return ix.onLine(p, pos, -1, name)
}

// inDoc returns the first directive of the given name inside a doc
// comment.
func (ix *directiveIndex) inDoc(p *Package, doc *ast.CommentGroup, name string) *directive {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if d := ix.onLine(p, c.Pos(), 0, name); d != nil {
			return d
		}
	}
	return nil
}

// named returns the production-file directives of one name, sorted by
// position — the input of the per-rule hygiene checks.
func (ix *directiveIndex) named(name string) []*directive {
	var out []*directive
	for _, d := range ix.byLine {
		if d.name == name && !d.test {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// applyIgnores drops diagnostics suppressed by an "//adhoclint:ignore
// [rule,...] reason" comment on the same line or the line directly above.
// A directive with no rule list suppresses every rule on that line.
func (ix *directiveIndex) applyIgnores(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if !ix.ignored(d, 0) && !ix.ignored(d, -1) {
			kept = append(kept, d)
		}
	}
	return kept
}

func (ix *directiveIndex) ignored(d Diagnostic, off int) bool {
	dir, ok := ix.byLine[lineKey{d.Pos.Filename, d.Pos.Line + off}]
	if !ok || dir.name != "ignore" {
		return false
	}
	rules := ignoreRules(dir.rest)
	if len(rules) == 0 {
		return true
	}
	for _, r := range rules {
		if r == d.Rule {
			return true
		}
	}
	return false
}

// ignoreRules parses the rule list of an ignore directive: a
// comma-separated sequence of rule names, each optionally followed by a
// parenthesized reason — "wireiso(rows copied by caller), alloc". Free
// text that is not a rule name ends the list; a directive whose list
// comes out empty suppresses every rule on its line.
func ignoreRules(rest string) []string {
	var rules []string
	for {
		name, _, tail := scanNameArgs(rest)
		if !isRuleName(name) {
			return rules
		}
		rules = append(rules, name)
		var more bool
		if rest, more = strings.CutPrefix(tail, ","); !more {
			return rules
		}
		rest = strings.TrimLeft(rest, " \t")
	}
}
