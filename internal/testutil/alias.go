package testutil

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The simulation runs every node in one Go address space, so a payload
// could share memory with a node's state where a real network would copy
// it. Shared, Digest and AliasProbe check, by reflection over the live
// values, that it does not.

// walker visits every value reachable from a root, unexported fields
// included, and calls span for each block of mutable memory it reaches: a
// slice's backing array (to its capacity), a map, a channel or a pointee.
// Strings are immutable and never count, values of the stop types are not
// entered, and seen ends cycles.
type walker struct {
	stop map[reflect.Type]bool
	seen map[seenKey]bool
	path []string // ".Field", "[]" for an element, "{}" for a map key or value
	span func(w *walker, lo, hi uintptr)
}

type seenKey struct {
	p   uintptr
	t   reflect.Type
	len int
}

// refFree caches whether a type holds no reference at all: a walk skips it.
var refFree sync.Map

func isRefFree(t reflect.Type) bool {
	if v, ok := refFree.Load(t); ok {
		return v.(bool)
	}
	free := true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Interface:
		free = false
	case reflect.Array:
		free = isRefFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			free = free && isRefFree(t.Field(i).Type)
		}
	}
	refFree.Store(t, free)
	return free
}

// enter records the block [p, p+size) of a value not seen before.
func (w *walker) enter(p, size uintptr, t reflect.Type, n int) bool {
	if w.seen[seenKey{p, t, n}] {
		return false
	}
	w.seen[seenKey{p, t, n}] = true
	if size > 0 {
		w.span(w, p, p+size)
	}
	return true
}

func (w *walker) at(seg string, v reflect.Value) {
	w.path = append(w.path, seg)
	w.walk(v)
	w.path = w.path[:len(w.path)-1]
}

func (w *walker) walk(v reflect.Value) {
	if !v.IsValid() || w.stop[v.Type()] || isRefFree(v.Type()) {
		return
	}
	switch t := v.Type(); v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !w.stop[t.Elem()] && w.enter(v.Pointer(), t.Elem().Size(), t, 0) {
			w.walk(v.Elem())
		}
	case reflect.Slice:
		if v.Cap() > 0 && w.enter(v.Pointer(), uintptr(v.Cap())*t.Elem().Size(), t, v.Len()) && !isRefFree(t.Elem()) {
			for i := range v.Len() {
				w.at("[]", v.Index(i))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			w.at("[]", v.Index(i))
		}
	case reflect.Map:
		if !v.IsNil() && w.enter(v.Pointer(), 1, t, 0) {
			for it := v.MapRange(); it.Next(); {
				w.at("{}", it.Key())
				w.at("{}", it.Value())
			}
		}
	case reflect.Chan:
		if !v.IsNil() {
			w.enter(v.Pointer(), 1, t, 0)
		}
	case reflect.Interface:
		w.walk(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			w.at("."+t.Field(i).Name, v.Field(i))
		}
	}
}

// eachBlock walks root, calling span for each block of mutable memory.
func eachBlock(root any, stop []reflect.Type, span func(w *walker, lo, hi uintptr)) {
	w := &walker{stop: map[reflect.Type]bool{}, seen: map[seenKey]bool{}, span: span}
	for _, t := range stop {
		w.stop[t] = true
	}
	w.walk(reflect.ValueOf(root))
}

// Shared returns the paths by which a and b reach one block of mutable
// memory, each "path in a ~ path in b"; nil when they share none.
func Shared(a, b any, stop ...reflect.Type) []string {
	type block struct {
		lo, hi uintptr
		path   string
	}
	var blocks []block
	eachBlock(a, stop, func(w *walker, lo, hi uintptr) { blocks = append(blocks, block{lo, hi, strings.Join(w.path, "")}) })
	var out []string
	if len(blocks) > 0 {
		eachBlock(b, stop, func(w *walker, lo, hi uintptr) {
			for _, bl := range blocks {
				if bl.lo < hi && lo < bl.hi {
					out = append(out, bl.path+" ~ "+strings.Join(w.path, ""))
				}
			}
		})
	}
	return out
}

var digestSeed = maphash.MakeSeed()

// Digest hashes the content reachable from v, whatever the map order:
// equal digests mean, barring a collision, that no reachable value changed.
func Digest(v any) uint64 { return digest(reflect.ValueOf(v), map[seenKey]bool{}) }

func digest(v reflect.Value, seen map[seenKey]bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	switch {
	case v.CanInt():
		mix(uint64(v.Int()))
	case v.CanUint():
		mix(v.Uint())
	case v.CanFloat():
		mix(math.Float64bits(v.Float()))
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			mix(1)
		}
	case reflect.String:
		mix(maphash.String(digestSeed, v.String()))
	case reflect.Interface:
		if !v.IsNil() {
			mix(digest(v.Elem(), seen))
		}
	case reflect.Pointer:
		if k := (seenKey{p: v.Pointer(), t: v.Type()}); !v.IsNil() && !seen[k] {
			seen[k] = true
			mix(digest(v.Elem(), seen))
		}
	case reflect.Slice, reflect.Array:
		mix(uint64(v.Len()))
		for i := range v.Len() {
			mix(digest(v.Index(i), seen))
		}
	case reflect.Map:
		sum := uint64(v.Len())
		for it := v.MapRange(); it.Next(); {
			sum += digest(it.Key(), seen)*31 ^ digest(it.Value(), seen)
		}
		mix(sum)
	case reflect.Struct:
		for i := range v.NumField() {
			mix(digest(v.Field(i), seen))
		}
	}
	return h
}

// AliasProbe checks the legs delivered to the handlers Wrap wraps: (a) at
// delivery the request shares no memory with any probed node; (b) once the
// handler returns, its reply shares none with the node that answered, and
// that node keeps nothing of the request; (c) when Findings runs, no
// delivered payload has changed since its delivery, and each is charged
// what the reference encoder writes for it (CheckWire).
type AliasProbe struct {
	stop     []reflect.Type
	nodes    map[string]any
	sent     []delivered
	count    map[string]int
	findings map[string]int
}

type delivered struct {
	what   string
	v      any
	digest uint64
}

// NewAliasProbe returns a probe whose walks do not enter the stop types:
// the fabric, and whatever else every node reaches without owning it.
func NewAliasProbe(stop ...reflect.Type) *AliasProbe {
	return &AliasProbe{stop: stop, nodes: map[string]any{}, count: map[string]int{}, findings: map[string]int{}}
}

// Node records a node's state under its name and reports whether the state
// is new to the probe, so that a caller wraps each node's handler once.
func (p *AliasProbe) Node(name string, state any) bool {
	if p.nodes[name] == state {
		return false
	}
	p.nodes[name] = state
	return true
}

// Wrap returns handler h of node name with the probe's checks around it. T
// and P are the fabric's time and payload types: this package does not
// import the fabric, whose own tests import it.
func Wrap[T, P any](p *AliasProbe, name string, h func(T, string, P) (P, T, error)) func(T, string, P) (P, T, error) {
	return func(at T, method string, req P) (P, T, error) {
		p.count[method]++
		for n, state := range p.nodes {
			p.note(method+" req", n, Shared(req, state, p.stop...))
		}
		p.sent = append(p.sent, delivered{method + " req", req, Digest(req)})
		resp, done, err := h(at, method, req)
		p.note(method+" resp", name, Shared(resp, p.nodes[name], p.stop...))
		p.note(method+" "+name+" keeps req", name, Shared(req, p.nodes[name], p.stop...))
		p.sent = append(p.sent, delivered{method + " resp", resp, Digest(resp)})
		return resp, done, err
	}
}

func (p *AliasProbe) note(what, node string, shared []string) {
	for _, s := range shared {
		in, state, _ := strings.Cut(s, " ~ ")
		p.findings[what+in+" ~ "+node+state]++
	}
}

// Findings lists what the probe found, with how often, then each of
// methods that no leg delivered: a scenario that stops reaching a method
// would otherwise pass without checking it.
func (p *AliasProbe) Findings(methods ...string) []string {
	found := maps.Clone(p.findings)
	for _, d := range p.sent {
		if Digest(d.v) != d.digest {
			found[d.what+" changed after delivery"]++
		}
		if s, ok := d.v.(interface{ SizeBytes() int }); ok {
			if err := CheckWire(s); err != nil {
				found[d.what+" "+err.Error()]++
			}
		}
	}
	var out []string
	for f, n := range found {
		out = append(out, fmt.Sprintf("%s (%d times)", f, n))
	}
	sort.Strings(out)
	for _, m := range methods {
		if p.count[m] == 0 {
			out = append(out, "no "+m+" leg was delivered")
		}
	}
	return out
}

// Check fails t with every finding, and logs the legs delivered per method.
func (p *AliasProbe) Check(t testing.TB, methods ...string) {
	t.Helper()
	t.Logf("alias probe: legs delivered %v", p.count)
	for _, f := range p.Findings(methods...) {
		t.Error("alias probe: " + f)
	}
}
