package overlay

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"adhocshare/internal/chord"
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

	net      *simnet.Network
	addr     simnet.Addr
	attached simnet.Addr // the index node this storage node hangs off

	mu    sync.Mutex
	named map[string]*rdf.Graph // named graphs by IRI
	views map[string]*rdf.Graph // memoized dataset merges, reset on writes
	// ownerCache memoizes key → successor owner learned while publishing —
	// the storage-side sibling of the dqp initiator cache (E14). Entries
	// are valid only for ownerEpoch; see System.Epoch for the rule.
	ownerCache map[chord.ID]simnet.Addr
	ownerEpoch uint64
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
func (s *StorageNode) AttachedTo() simnet.Addr { return s.attached }

// NamedGraph returns (creating on demand) the provider's named graph for
// the given IRI and invalidates memoized dataset views.
//
//adhoclint:faultpath(benign, creates an empty graph on demand and resets memoized views; re-running yields identical state)
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

// CachedOwner returns the successor owner cached for the key, provided it
// was learned in the given stabilization epoch; older entries are treated
// as absent (ownership may have moved).
func (s *StorageNode) CachedOwner(epoch uint64, key chord.ID) (simnet.Addr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ownerEpoch != epoch || s.ownerCache == nil {
		return "", false
	}
	a, ok := s.ownerCache[key]
	return a, ok
}

// RememberOwners records key → owner mappings learned in the given epoch,
// discarding anything cached under an older epoch first.
func (s *StorageNode) RememberOwners(epoch uint64, owners map[chord.ID]simnet.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ownerEpoch != epoch || s.ownerCache == nil {
		s.ownerCache = make(map[chord.ID]simnet.Addr, len(owners))
		s.ownerEpoch = epoch
	}
	for k, a := range owners {
		s.ownerCache[k] = a
	}
}

// OwnerCacheLen reports how many key → owner entries are cached (tests and
// the E2 notes).
func (s *StorageNode) OwnerCacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ownerCache)
}

// DropOwnerCache clears the successor-owner cache; the overlay calls it
// when the node re-attaches to a different index node.
//
//adhoclint:faultpath(benign, cache invalidation; a failure afterwards leaves a cold cache the next lookup refills)
func (s *StorageNode) DropOwnerCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ownerCache = nil
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
//
//adhoclint:faultpath(benign, memoized view fill; recomputation writes the same merged graph)
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

	merged := rdf.NewGraph()
	if len(dataset) == 0 {
		merged.AddAll(s.Graph.Triples())
		s.mu.Lock()
		for _, g := range s.named {
			merged.AddAll(g.Triples())
		}
		s.mu.Unlock()
	} else {
		for _, iri := range dataset {
			s.mu.Lock()
			g, ok := s.named[iri]
			s.mu.Unlock()
			if ok {
				merged.AddAll(g.Triples())
			}
		}
	}
	s.mu.Lock()
	s.views[key] = merged
	s.mu.Unlock()
	return merged
}

// HandleCall serves storage-node sub-query methods.
func (s *StorageNode) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodMatch:
		r, ok := req.(MatchReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: match payload %T", req)
		}
		return SolutionsResp{Sols: s.LocalMatchScope(r.Patterns, r.Filter, r.Seeds, r.Dataset, r.FromNamed, r.Graph)}, at, nil
	case MethodChainHop:
		// Pure data arrival in a forwarding chain; the local evaluation is
		// performed via LocalMatch by the chain driver. Acknowledge only.
		return simnet.Bytes(1), at, nil
	case MethodCount:
		r, ok := req.(CountReq)
		if !ok {
			return nil, at, fmt.Errorf("overlay: count payload %T", req)
		}
		return CountResp{N: s.datasetGraph(nil).CountMatch(r.Pattern)}, at, nil
	case MethodDump:
		r, ok := req.(CountReq) // reuse: dump triples matching a pattern
		if !ok {
			return nil, at, fmt.Errorf("overlay: dump payload %T", req)
		}
		return TriplesResp{Triples: s.datasetGraph(nil).Match(r.Pattern)}, at, nil
	default:
		return nil, at, fmt.Errorf("overlay: storage node %s: unknown method %s", s.addr, method)
	}
}

// LocalMatch evaluates a pattern conjunction against the provider's full
// shared dataset (default plus named graphs).
func (s *StorageNode) LocalMatch(patterns []rdf.Triple, filter sparql.Expression, seeds eval.Solutions) eval.Solutions {
	return s.LocalMatchDataset(patterns, filter, seeds, nil)
}

// LocalMatchDataset evaluates a pattern conjunction against the dataset
// selected by the query's FROM clause: each seed partial solution is
// extended by the local matches (in-network aggregation), then the
// optional pushed-down filter is applied. A nil seed set means the unit
// seed.
func (s *StorageNode) LocalMatchDataset(patterns []rdf.Triple, filter sparql.Expression, seeds eval.Solutions, dataset []string) eval.Solutions {
	if seeds == nil {
		seeds = eval.Solutions{eval.NewBinding()}
	}
	sols := eval.EvalBGP(s.datasetGraph(dataset), patterns, seeds)
	if filter != nil {
		sols = eval.FilterSolutions(sols, filter)
	}
	return sols
}

// LocalMatchScope additionally honours a GRAPH scope: a zero graph term
// matches the dataset-scoped default graph; an IRI term matches that named
// graph only; a variable term iterates the named graphs available to GRAPH
// patterns (fromNamed when given, none when a FROM clause restricted the
// dataset, otherwise every named graph the provider shares) and binds the
// variable to each graph's IRI.
func (s *StorageNode) LocalMatchScope(patterns []rdf.Triple, filter sparql.Expression, seeds eval.Solutions, dataset, fromNamed []string, graph rdf.Term) eval.Solutions {
	if graph.IsZero() {
		return s.LocalMatchDataset(patterns, filter, seeds, dataset)
	}
	if seeds == nil {
		seeds = eval.Solutions{eval.NewBinding()}
	}
	names := s.graphsForGraphPatterns(dataset, fromNamed)
	var out eval.Solutions
	if !graph.IsVar() {
		if !containsString(names, graph.Value) {
			return nil
		}
		s.mu.Lock()
		g := s.named[graph.Value]
		s.mu.Unlock()
		if g == nil {
			return nil
		}
		out = eval.EvalBGP(g, patterns, seeds)
	} else {
		varName := graph.Value
		for _, iri := range names {
			s.mu.Lock()
			g := s.named[iri]
			s.mu.Unlock()
			if g == nil {
				continue
			}
			gTerm := rdf.NewIRI(iri)
			for _, b := range eval.EvalBGP(g, patterns, seeds) {
				if old, bound := b[varName]; bound {
					if old != gTerm {
						continue
					}
					out = append(out, b)
					continue
				}
				nb := b.Clone()
				nb[varName] = gTerm
				out = append(out, nb)
			}
		}
	}
	if filter != nil {
		out = eval.FilterSolutions(out, filter)
	}
	return out
}

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

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
