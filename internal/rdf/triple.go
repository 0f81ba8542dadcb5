package rdf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Triple is one RDF statement. When used as a triple pattern, any of the
// three positions may be a variable (KindVar).
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its components.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (without the trailing dot
// when any component is a variable, in which case it is a pattern).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// IsConcrete reports whether all three positions are concrete terms, i.e.
// the triple can be stored in a graph.
func (t Triple) IsConcrete() bool {
	return t.S.IsConcrete() && t.P.IsConcrete() && t.O.IsConcrete()
}

// Vars returns the distinct variable names occurring in the pattern, in
// subject, predicate, object order, in a slice of their own.
func (t Triple) Vars() []string {
	var buf [3]string
	if vars := t.AppendVars(buf[:0]); len(vars) > 0 {
		return slices.Clone(vars)
	}
	return nil
}

// AppendVars appends Vars' names to vars and returns the extended slice.
// Into a caller's array of three, it allocates nothing: the form for
// callers that only read the names.
func (t Triple) AppendVars(vars []string) []string {
	from := len(vars)
	for _, term := range [3]Term{t.S, t.P, t.O} {
		if term.IsVar() && !slices.Contains(vars[from:], term.Value) {
			vars = append(vars, term.Value)
		}
	}
	return vars
}

// BoundMask describes which positions of a triple pattern are concrete.
// It is the basis for choosing one of the six distributed index keys
// (Sect. III-B of the paper).
type BoundMask uint8

// Bound-position flags. They combine with bitwise OR.
const (
	BoundS BoundMask = 1 << iota
	BoundP
	BoundO
)

// Mask returns the BoundMask of the pattern.
func (t Triple) Mask() BoundMask {
	var m BoundMask
	if t.S.IsConcrete() {
		m |= BoundS
	}
	if t.P.IsConcrete() {
		m |= BoundP
	}
	if t.O.IsConcrete() {
		m |= BoundO
	}
	return m
}

// String names the mask, e.g. "sp" for subject+predicate bound.
func (m BoundMask) String() string {
	var sb strings.Builder
	if m&BoundS != 0 {
		sb.WriteByte('s')
	}
	if m&BoundP != 0 {
		sb.WriteByte('p')
	}
	if m&BoundO != 0 {
		sb.WriteByte('o')
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}

// SizeBytes estimates the wire size of the triple for the cost model.
func (t Triple) SizeBytes() int {
	return t.S.SizeBytes() + t.P.SizeBytes() + t.O.SizeBytes()
}

// SortTriples orders a slice of triples deterministically (by subject,
// predicate, object using Compare). It is used by tests and serializers.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if c := Compare(ts[i].S, ts[j].S); c != 0 {
			return c < 0
		}
		if c := Compare(ts[i].P, ts[j].P); c != 0 {
			return c < 0
		}
		return Compare(ts[i].O, ts[j].O) < 0
	})
}
