// Package eval implements local evaluation of SPARQL algebra expressions
// over an rdf.Graph: solution mappings, the compatible-mapping join, union
// and left join of Pérez et al. (Sect. IV-A of the paper), filter
// expression evaluation with effective boolean values, and the solution
// sequence modifiers.
//
// The same primitives are reused by the distributed query processor, which
// ships partial solution multisets between nodes and joins them in-network.
package eval

import (
	"slices"
	"sort"
	"strings"

	"adhocshare/internal/rdf"
)

// Binding is one solution mapping µ: a partial function from variable
// names to RDF terms.
//
// Bindings are immutable after construction by convention: every algebra
// operation (Merge, Project, extend, ...) builds a fresh mapping via
// Clone or make, so sharing a Binding across nodes or solution sets is
// safe. Mutate only freshly cloned bindings: every producer clones before
// writing.
type Binding map[string]rdf.Term

// NewBinding returns an empty solution mapping.
func NewBinding() Binding { return Binding{} }

// Clone returns an independent copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Bound reports whether the variable is bound.
func (b Binding) Bound(v string) bool {
	_, ok := b[v]
	return ok
}

// Compatible reports whether two mappings agree on every shared variable
// (the compatibility relation of Pérez et al.).
func (b Binding) Compatible(c Binding) bool {
	small, large := b, c
	if len(large) < len(small) {
		small, large = large, small
	}
	for k, v := range small {
		if w, ok := large[k]; ok && w != v {
			return false
		}
	}
	return true
}

// Merge returns µ1 ∪ µ2 for compatible mappings. The caller must ensure
// compatibility; on conflicting variables the receiver's value wins.
func (b Binding) Merge(c Binding) Binding {
	out := make(Binding, len(b)+len(c))
	for k, v := range c {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Equal reports whether two mappings bind exactly the same variables to
// the same terms.
func (b Binding) Equal(c Binding) bool {
	if len(b) != len(c) {
		return false
	}
	for k, v := range b {
		if w, ok := c[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the mapping: the display and test
// form (sorting for output, multiset comparison in tests). It is not the
// dedup key — evaluation locates rows by hash and compares them with Equal.
func (b Binding) Key() string {
	if len(b) == 0 {
		return ""
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(b[k].String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// Project returns a mapping restricted to the given variables: the
// receiver itself when it binds nothing else (mappings are immutable, so
// sharing one is safe), a fresh mapping otherwise.
func (b Binding) Project(vars []string) Binding {
	keep := true
	for k := range b {
		if !slices.Contains(vars, k) {
			keep = false
			break
		}
	}
	if keep {
		return b
	}
	out := make(Binding, len(vars))
	for _, v := range vars {
		if t, ok := b[v]; ok {
			out[v] = t
		}
	}
	return out
}

// String renders the binding deterministically for debugging.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = "?" + k + "→" + b[k].String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Solutions is a solution multiset Ω.
//
// Like Binding, a Solutions value is immutable after construction: the
// algebra operations return fresh slices (sub-slicing in Slice is fine —
// the elements are never overwritten; Dedup is append-only — it writes
// only past the prefixes it has handed out), so partial solution sets can
// ship between nodes without deep-copying.
type Solutions []Binding

// SizeBytes estimates the wire size of the multiset: the one table rule's
// charge (dict.go) for the mappings laid out as a table over the variables
// they bind, one cell per mapping and variable.
func (s Solutions) SizeBytes() int {
	var u usage
	var vars []string
	var d dictIndex
	for _, b := range s {
		for v, t := range b {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
				u.cols++
				u.names += len(v)
			}
			if p := d.add(t); int(p) > u.distinct {
				u.distinct++
				u.bytes += t.SizeBytes()
			}
		}
	}
	return u.size(len(s))
}

// Join computes Ω1 ⋈ Ω2: the merge of every compatible pair, in nested-loop
// order (a outer, b inner).
func Join(a, b Solutions) Solutions {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	ix := newJoinIndex(a, b)
	var out Solutions
	var hits []int
	for _, x := range a {
		hits = ix.compatible(x, hits)
		for _, i := range hits {
			out = append(out, x.Merge(b[i]))
		}
	}
	return out
}

// Union computes Ω1 ∪ Ω2 (multiset union).
func Union(a, b Solutions) Solutions {
	out := make(Solutions, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Distinct removes duplicate mappings, preserving first occurrences.
func Distinct(s Solutions) Solutions {
	var d Dedup
	d.Add(s)
	return d.Solutions()
}

// Reduced removes adjacent duplicate mappings.
func Reduced(s Solutions) Solutions {
	var out Solutions
	for i, b := range s {
		if i > 0 && b.Equal(s[i-1]) {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Project restricts every mapping to the given variables.
func Project(s Solutions, vars []string) Solutions {
	out := make(Solutions, len(s))
	for i, b := range s {
		out[i] = b.Project(vars)
	}
	return out
}

// Slice applies OFFSET and LIMIT (-1 meaning unset).
func Slice(s Solutions, offset, limit int) Solutions {
	if offset > 0 {
		if offset >= len(s) {
			return nil
		}
		s = s[offset:]
	}
	if limit >= 0 && limit < len(s) {
		s = s[:limit]
	}
	return s
}
