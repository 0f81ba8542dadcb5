package overlay

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
)

// StorageNode is a data provider: it keeps its own RDF triples in a local
// graph (the ad-hoc sharing premise of Sect. I), attaches to one index
// node, and answers sub-queries shipped to it by the distributed query
// processor.
//
// A provider holds one default graph plus any number of named graphs
// (Sect. IV-A datasets). With no FROM clause a query sees the union of
// everything the provider shares; FROM clauses select the merge of the
// listed graphs as the query's default graph.
type StorageNode struct {
	// Graph is the provider's default graph.
	Graph *rdf.Graph

	net  *simnet.Network
	addr simnet.Addr

	mu       lockcheck.Mutex
	attached simnet.Addr           // the index node this storage node hangs off
	named    map[string]*rdf.Graph // named graphs by IRI
	views    map[string]*rdf.Graph // memoized dataset merges, reset on writes
	// arcs are the owner arcs this node's publications learned from batch
	// resolves, newest last — the storage-side sibling of the dqp
	// initiator cache (E14). Its publications ship to the owners they
	// name, and the lookups it initiates read from them (LookupClient).
	// They are valid only for arcEpoch. A graceful join or leave on a
	// converged ring carries them into the next epoch, splitting or merging
	// the one arc it moved (keepArcs); see System.Epoch for the rule.
	arcs     []chord.Arc
	arcEpoch uint64

	// pos is MatchKeys' scratch for building a reply's dictionary from its
	// graph's term IDs: pos[id] is the term's position in the reply's
	// dictionary, 0 while the reply does not hold it. Every entry is zero
	// between matches. Held under matchMu for the whole match.
	matchMu lockcheck.Mutex
	pos     []uint32
}

// NewStorageNode creates a storage node and registers it on the network.
func NewStorageNode(net *simnet.Network, addr simnet.Addr, attached simnet.Addr) *StorageNode {
	s := &StorageNode{
		Graph:    rdf.NewGraph(),
		net:      net,
		addr:     addr,
		attached: attached,
		named:    map[string]*rdf.Graph{},
		views:    map[string]*rdf.Graph{},
	}
	net.Register(addr, simnet.HandlerFunc(s.HandleCall))
	return s
}

// Addr returns the node's network address.
func (s *StorageNode) Addr() simnet.Addr { return s.addr }

// AttachedTo returns the index node this storage node attaches to.
func (s *StorageNode) AttachedTo() simnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached
}

// rehome re-attaches the storage node to next once its attachment point is
// no longer alive — in the ad-hoc setting a storage node simply attaches to
// another ring member (Sect. III-A) — and drops the owner arcs, which
// reflect the dead node's view of the ring. It returns the node's entry
// point: the attachment another client already re-homed it to, else next
// ("" when there is no live ring member, the attachment left as it was).
//
// Re-homing is deterministic: re-running it converges to the same attachment,
// and a caller that fails afterwards leaves the node validly re-homed.
func (s *StorageNode) rehome(next simnet.Addr) simnet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net.Alive(s.attached) {
		return s.attached
	}
	if next != "" {
		s.attached = next
		s.arcs = nil
	}
	return next
}

// NamedGraph returns (creating on demand) the provider's named graph for
// the given IRI and invalidates memoized dataset views.
func (s *StorageNode) NamedGraph(iri string) *rdf.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.named[iri]
	if !ok {
		g = rdf.NewGraph()
		s.named[iri] = g
	}
	s.views = map[string]*rdf.Graph{}
	return g
}

// GraphNames lists the provider's named graphs, sorted.
func (s *StorageNode) GraphNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.named))
	for n := range s.named {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ownerArc returns the newest owner arc learned in the given stabilization
// epoch that contains key; arcs of an older epoch are treated as absent
// (ownership may have moved).
func (s *StorageNode) ownerArc(epoch uint64, key chord.ID) (chord.Arc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arcEpoch != epoch {
		return chord.Arc{}, false
	}
	for i := len(s.arcs) - 1; i >= 0; i-- {
		if s.arcs[i].Contains(key) {
			return s.arcs[i], true
		}
	}
	return chord.Arc{}, false
}

// liveOwner returns the owner of key by an arc learned in epoch, if that
// owner is alive, and "" otherwise: the one rule by which publication
// ships a key straight to its owner and a lookup reads it from there.
func (s *StorageNode) liveOwner(epoch uint64, key chord.ID) simnet.Addr {
	if arc, ok := s.ownerArc(epoch, key); ok && s.net.Alive(arc.Owner.Addr) {
		return arc.Owner.Addr
	}
	return ""
}

// learnArcs records owner arcs learned in the given epoch, discarding those
// of an older epoch first. ownerArc reads the newest first, so an arc an
// eviction widened wins over its older copy.
//
// An arc a resolve vouched for stays true whatever becomes of the shipment
// after it, and the epoch bounds its life.
func (s *StorageNode) learnArcs(epoch uint64, arcs []chord.Arc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arcEpoch != epoch {
		s.arcs = s.arcs[:0]
		s.arcEpoch = epoch
	}
	s.arcs = append(s.arcs, arcs...)
}

// keepArcs carries the arcs of the epoch before epoch into it, moving the
// one arc a graceful join or leave of mover moved (Sect. III-C/D): a join
// of M splits the held arc (s, O] that contains M's ID into (s, M]→M and
// (M, O]→O; a leave of M drops M's arc (s, M] and widens a held (M, O]
// to (s, O]→O. So a join adds one arc and a leave removes one, and the
// rewrite needs nothing but the mover's Ref the epoch notice carries. A
// zero mover — a round that moved nothing — carries every arc. Arcs of an
// older epoch stay dead.
func (s *StorageNode) keepArcs(epoch uint64, mover chord.Ref, join bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arcEpoch+1 != epoch {
		return
	}
	s.arcEpoch = epoch
	switch {
	case mover.IsZero():
	case join:
		for i, n := 0, len(s.arcs); i < n; i++ {
			if a := s.arcs[i]; a.Contains(mover.ID) {
				s.arcs[i].Owner = mover
				s.arcs = append(s.arcs, chord.Arc{Start: mover.ID, Owner: a.Owner})
			}
		}
	default:
		start, held := chord.ID(0), false
		kept := s.arcs[:0]
		for _, a := range s.arcs {
			switch {
			case a.Owner.Addr == mover.Addr:
				start, held = a.Start, true
			case !a.Contains(mover.ID):
				kept = append(kept, a)
			}
		}
		for i := range kept {
			if held && kept[i].Start == mover.ID {
				kept[i].Start = start // (M, O] becomes (s, O]
			}
		}
		s.arcs = kept
	}
}

// dropArcs forgets the owner arcs; the overlay calls it before
// re-resolving the keys of owners that died.
func (s *StorageNode) dropArcs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arcs = nil
}

// InvalidateViews drops memoized dataset merges; the overlay calls it
// after publications and retractions.
func (s *StorageNode) InvalidateViews() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views = map[string]*rdf.Graph{}
}

// TotalTriples counts the provider's triples across all graphs.
func (s *StorageNode) TotalTriples() int {
	n := s.Graph.Size()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.named {
		n += g.Size()
	}
	return n
}

// datasetGraph returns the graph a query's dataset clause selects at this
// provider: with no FROM graphs (nil), the union of everything the
// provider shares (the paper's Sect. IV-A default); otherwise the merge of
// the listed named graphs. Merged views are memoized until the next write.
func (s *StorageNode) datasetGraph(dataset []string) *rdf.Graph {
	s.mu.Lock()
	if len(dataset) == 0 && len(s.named) == 0 {
		s.mu.Unlock()
		return s.Graph
	}
	key := strings.Join(dataset, "\x00")
	if g, ok := s.views[key]; ok {
		s.mu.Unlock()
		return g
	}
	s.mu.Unlock()

	// A graph's match order follows its edit history, so the merge adds the
	// named graphs in sorted order, never in the map's.
	merged := rdf.NewGraph()
	if len(dataset) == 0 {
		merged.AddAll(s.Graph.Triples())
		dataset = s.GraphNames()
	}
	for _, iri := range dataset {
		s.mu.Lock()
		g, ok := s.named[iri]
		s.mu.Unlock()
		if ok {
			merged.AddAll(g.Triples())
		}
	}
	s.mu.Lock()
	s.views[key] = merged
	s.mu.Unlock()
	return merged
}

// HandleCall serves storage-node sub-query methods and takes over the query
// engine's data legs.
func (s *StorageNode) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodMatch:
		r, ok := req.(MatchReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: match payload %T", req)
		}
		out := MatchResp{Tables: make([]eval.Table, len(r.Units))}
		for i, u := range r.Units {
			out.Tables[i] = s.MatchKeys(u.Pattern, u.Filter, u.Keys, r.Dataset, r.FromNamed, u.Graph)
		}
		return out, at, nil
	case MethodChainHop:
		r, ok := req.(ChainReq)
		if !ok || len(r.Sub.Units) != 1 {
			return nil, at, fmt.Errorf("overlay: chain hop payload %T of %d units", req, len(r.Sub.Units))
		}
		u := r.Sub.Units[0]
		return s.MatchKeys(u.Pattern, u.Filter, u.Keys, r.Sub.Dataset, r.Sub.FromNamed, u.Graph), at, nil
	case MethodDispatch, MethodShip, MethodResult:
		return req, at, nil // delivered: the node holds it from here on
	default:
		return nil, at, fmt.Errorf("overlay: storage node %s: unknown method %s", s.addr, method)
	}
}

// LocalMatch evaluates a pattern conjunction against the provider's full
// shared dataset (default plus named graphs), extending each seed by the
// local matches and applying the optional filter; a nil seed set means the
// unit seed. The query engine does not come through here — sub-queries are
// keyed, see MatchKeys — it is the benchmark harness's probe of one
// provider's local evaluation (bench/replay.go).
func (s *StorageNode) LocalMatch(patterns []rdf.Triple, filter sparql.Expression, seeds eval.Solutions) eval.Solutions {
	if seeds == nil {
		seeds = eval.Solutions{eval.NewBinding()}
	}
	return eval.FilterSolutions(eval.EvalBGP(s.datasetGraph(nil), patterns, seeds), filter)
}

// scopedGraph is one graph a sub-query runs over; name is the graph's IRI
// when a GRAPH variable ranges over it, the zero Term otherwise.
type scopedGraph struct {
	g    *rdf.Graph
	name rdf.Term
}

// scopedGraphs resolves a sub-query's scope at this provider. A zero graph
// term selects the dataset-scoped default graph; an IRI term that named
// graph only; a variable term every named graph available to GRAPH patterns
// (fromNamed when given, none when a FROM clause restricted the dataset,
// otherwise every named graph the provider shares), in sorted order.
func (s *StorageNode) scopedGraphs(dataset, fromNamed []string, graph rdf.Term) []scopedGraph {
	if graph.IsZero() {
		return []scopedGraph{{g: s.datasetGraph(dataset)}}
	}
	names := s.graphsForGraphPatterns(dataset, fromNamed)
	if !graph.IsVar() {
		if !slices.Contains(names, graph.Value) {
			return nil
		}
		names = []string{graph.Value}
	}
	out := make([]scopedGraph, 0, len(names))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, iri := range names {
		g := s.named[iri]
		if g == nil {
			continue
		}
		sg := scopedGraph{g: g}
		if graph.IsVar() {
			sg.name = rdf.NewIRI(iri)
		}
		out = append(out, sg)
	}
	return out
}

// MatchKeys is the keyed sub-query evaluation behind store.match and the
// chain hop: for every key row it substitutes the key into the pattern and
// returns the local matches as a table over the pattern's variables in
// subject, predicate, object order, followed by a GRAPH variable the
// pattern does not mention. keys bind a subset of those variables; rows
// come graph by graph, key by key, in the graph's match order. filter, when
// non-nil, may mention only variables of the reply and is applied before
// the rows are returned (the pushed-down FILTER of Sect. IV-G). The reply's
// dictionary holds the terms its rows use: over one graph built from the
// graph's term IDs as the rows are emitted, then copied out of the graph;
// over several, or with a graph name column, whose terms no one ID space
// holds, built by value (eval.TableOf).
func (s *StorageNode) MatchKeys(pat rdf.Triple, filter sparql.Expression, keys eval.Table, dataset, fromNamed []string, graph rdf.Term) eval.Table {
	out := eval.Table{Vars: pat.Vars()}
	pos := [3]*rdf.Term{&pat.S, &pat.P, &pat.O}
	// from[c] is the triple position column c is read from, 3 for a GRAPH
	// variable outside the pattern, whose column holds the graph's name;
	// sub[i] is the key column substituted into position i, -1 for none.
	var fromCols [4]int
	from := fromCols[:0]
	for _, v := range out.Vars {
		for i, p := range pos {
			if p.IsVar() && p.Value == v {
				from = append(from, i)
				break
			}
		}
	}
	gKey := -1 // key column of the GRAPH variable
	if graph.IsVar() {
		gKey = slices.Index(keys.Vars, graph.Value)
		if !slices.Contains(out.Vars, graph.Value) {
			out.Vars = append(out.Vars, graph.Value)
			from = append(from, 3)
		}
	}
	sub := [3]int{-1, -1, -1}
	for i, p := range pos {
		if p.IsVar() {
			sub[i] = slices.Index(keys.Vars, p.Value)
		}
	}
	graphs := s.scopedGraphs(dataset, fromNamed, graph)

	// bind substitutes key row k, and the graph's name for a GRAPH variable
	// the pattern mentions, into the pattern; false when the key names
	// another graph.
	bind := func(sg scopedGraph, k int) (rdf.Triple, bool) {
		if gKey >= 0 && keys.Term(k, gKey) != sg.name {
			return rdf.Triple{}, false
		}
		b := pat
		for i, p := range [3]*rdf.Term{&b.S, &b.P, &b.O} {
			switch {
			case sub[i] >= 0:
				*p = keys.Term(k, sub[i])
			case graph.IsVar() && p.IsVar() && p.Value == graph.Value:
				*p = sg.name
			}
		}
		return b, true
	}

	s.matchMu.Lock()
	defer s.matchMu.Unlock()
	byID := len(graphs) == 1 && !slices.Contains(from, 3)
	var (
		bound   rdf.Triple
		repeats bool // bound leaves a variable in two positions
		name    rdf.Term
		scratch eval.Binding // one mapping reused for every filtered row
		terms   []rdf.Term   // the rows' terms, row-major, unless byID
		held    uint32       // the terms the reply holds, byID
	)
	term := func(t *rdf.Triple, i int) rdf.Term { return [...]rdf.Term{t.S, t.P, t.O, name}[i] }
	collect := func(t rdf.Triple, tid [3]uint32) bool {
		// a variable left in two positions must match one term
		if repeats && (bound.S.IsVar() && (bound.S == bound.P && t.S != t.P || bound.S == bound.O && t.S != t.O) ||
			bound.P.IsVar() && bound.P == bound.O && t.P != t.O) {
			return true
		}
		if filter != nil {
			if scratch == nil {
				scratch = make(eval.Binding, len(out.Vars))
			}
			for c, i := range from {
				scratch[out.Vars[c]] = term(&t, i)
			}
			if !eval.Satisfies(filter, scratch) {
				return true
			}
		}
		out.N++
		for _, i := range from {
			if !byID {
				terms = append(terms, term(&t, i))
				continue
			}
			if id := tid[i]; s.pos[id] == 0 {
				held++
				s.pos[id] = held
				out.Cells = append(out.Cells, firstUse|id)
			} else {
				out.Cells = append(out.Cells, s.pos[id])
			}
		}
		return true
	}
	for _, sg := range graphs {
		name = sg.name
		sg.g.Read(func(r rdf.Reader) {
			if n := r.IDs(); byID && n > len(s.pos) {
				s.pos = make([]uint32, n) // zero, as every entry is between matches
			}
			// Size the reply before filling it: a count is a binary search,
			// a reply grown by append is copied a dozen times over.
			n := 0
			for k := 0; k < keys.N; k++ {
				if b, ok := bind(sg, k); ok {
					n += r.Count(&b)
				}
			}
			if byID {
				out.Cells = slices.Grow(out.Cells, n*len(out.Vars))
			} else {
				terms = slices.Grow(terms, n*len(out.Vars))
			}
			for k := 0; k < keys.N && n > 0; k++ {
				var ok bool
				if bound, ok = bind(sg, k); ok {
					repeats = bound.S.IsVar() && (bound.S == bound.P || bound.S == bound.O) ||
						bound.P.IsVar() && bound.P == bound.O
					r.Each(&bound, collect)
				}
			}
			if byID { // copy the dictionary out of the graph, and zero pos
				out.Dict = make([]rdf.Term, held)
				for c, k := range out.Cells {
					if id := k &^ firstUse; k&firstUse != 0 {
						out.Cells[c] = s.pos[id]
						out.Dict[s.pos[id]-1] = r.Term(id)
						s.pos[id] = 0
					}
				}
			}
		})
	}
	if !byID {
		n := out.N
		out = eval.TableOf(out.Vars, terms)
		out.N = n
	}
	return out
}

// firstUse marks the cell of a term's first use in a reply MatchKeys is
// building from graph IDs: such a cell holds the term's ID until the reply
// is complete, so that the pass completing it finds each ID to copy out
// and to zero once, in dictionary order, with no list of its own. A
// graph's IDs stay below it: 2^31 terms would be 80 GiB of them.
const firstUse = 1 << 31

// graphsForGraphPatterns lists the named graphs GRAPH may range over at
// this provider, per the W3C dataset rules adapted to the ad-hoc default.
func (s *StorageNode) graphsForGraphPatterns(dataset, fromNamed []string) []string {
	if len(fromNamed) > 0 {
		return fromNamed
	}
	if len(dataset) > 0 {
		// an explicit FROM without FROM NAMED leaves no named graphs
		return nil
	}
	return s.GraphNames()
}
