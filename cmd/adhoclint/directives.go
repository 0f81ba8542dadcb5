package main

import (
	"slices"
	"strings"
)

// A directive is one //adhoclint:name rest comment; ignore is the one
// name the linter reads, from the one index built here.
type directive struct {
	name string // "ignore"
	rest string // free text after the name
}

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
		for _, f := range p.AllFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "adhoclint:")
					if !ok {
						continue
					}
					name, rest := scanNameArgs(text)
					pos := p.Fset.Position(c.Pos())
					ix.byLine[lineKey{pos.Filename, pos.Line}] = &directive{name: name, rest: rest}
				}
			}
		}
	}
	prog.directives = ix
	return ix
}

// scanNameArgs splits "name(args) rest" into an identifier and the trimmed
// remainder, skipping an optional balanced parenthesized argument text
// (which may itself contain commas and parentheses). It is the one parser
// behind the directive grammar and the rule list of an ignore directive,
// whose entries carry their reasons as arguments: "guarded-field(reason), determinism".
func scanNameArgs(s string) (name, rest string) {
	i := 0
	for i < len(s) && isDirectiveIdentChar(s[i]) {
		i++
	}
	name, s = s[:i], strings.TrimLeft(s[i:], " \t")
	if !strings.HasPrefix(s, "(") {
		return name, strings.TrimSpace(s)
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
	if end < len(s) {
		rest = strings.TrimSpace(s[end+1:])
	}
	return name, rest
}

func isDirectiveIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

// applyIgnores drops diagnostics suppressed by an "//adhoclint:ignore
// rule,... reason" comment on the same line or the line directly above.
// Only the rules it names are suppressed: a directive naming none, or only
// a rule that no longer exists, suppresses nothing.
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
	return slices.Contains(ignoreRules(dir.rest), d.Rule)
}

// ignoreRules parses the rule list of an ignore directive: a
// comma-separated sequence of rule names, each optionally followed by a
// parenthesized reason — "guarded-field(set before serving), determinism".
// Free text that is not a rule name ends the list.
func ignoreRules(rest string) []string {
	var rules []string
	for {
		name, tail := scanNameArgs(rest)
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
