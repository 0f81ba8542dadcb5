// Package rdfpeers implements the comparison baseline of the paper's
// Sect. II: RDFPeers (Cai & Frank, WWW 2004), a distributed RDF repository
// in which every triple is *stored at* three places on a Chord ring — the
// successors of hash(subject), hash(predicate) and hash(object). Unlike
// the paper's hybrid overlay, data leaves its provider: ring nodes store
// other peers' triples, which is exactly the property the paper's design
// avoids ("data providers store and manipulate their own data locally").
//
// The implementation supports the RDFPeers query classes the paper
// discusses: single triple patterns (routed by the most selective bound
// attribute) and conjunctive multi-attribute queries over a shared subject
// variable, resolved by shipping candidate-subject sets from node to node
// and intersecting (the MAQ algorithm).
package rdfpeers

import (
	"fmt"
	"sort"
	"strings"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// RPC method names ("rdfpeers." prefix for traffic attribution).
const (
	// A re-delivered store is harmless: triples live in a set-semantics
	// graph, so re-adding the same triple is a no-op.
	MethodStore     = "rdfpeers.store"
	MethodMatch     = "rdfpeers.match"
	MethodIntersect = "rdfpeers.intersect"
	// MethodResult ships final results back to the query initiator, one
	// way: the initiator takes over what was delivered, and a re-sent leg
	// is taken over again.
	MethodResult = "rdfpeers.result"
)

// StoreReq ships one triple for storage at a ring node.
type StoreReq struct {
	Triple rdf.Triple
	TC     trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r StoreReq) SizeBytes() int { return r.Triple.SizeBytes() + r.TC.SizeBytes() }

// TraceCtx implements trace.Carrier.
func (r StoreReq) TraceCtx() trace.TraceContext { return r.TC }

// MatchReq asks a ring node to match a pattern against its local store.
type MatchReq struct {
	Pattern rdf.Triple
	TC      trace.TraceContext
}

// SizeBytes implements simnet.Payload.
func (r MatchReq) SizeBytes() int { return r.Pattern.SizeBytes() + r.TC.SizeBytes() }

// TraceCtx implements trace.Carrier.
func (r MatchReq) TraceCtx() trace.TraceContext { return r.TC }

// SolutionsResp returns solution mappings.
type SolutionsResp struct {
	Sols eval.Solutions
}

// SizeBytes implements simnet.Payload.
func (r SolutionsResp) SizeBytes() int { return r.Sols.SizeBytes() }

// IntersectReq ships candidate subjects to the node responsible for the
// next pattern, which intersects them with its local matches.
type IntersectReq struct {
	Pattern    rdf.Triple
	Candidates []rdf.Term
	TC         trace.TraceContext
}

// TraceCtx implements trace.Carrier.
func (r IntersectReq) TraceCtx() trace.TraceContext { return r.TC }

// SizeBytes implements simnet.Payload.
func (r IntersectReq) SizeBytes() int {
	n := r.Pattern.SizeBytes() + r.TC.SizeBytes()
	for _, t := range r.Candidates {
		n += t.SizeBytes()
	}
	return n
}

// TermsResp returns a candidate subject set.
type TermsResp struct {
	Terms []rdf.Term
}

// SizeBytes implements simnet.Payload.
func (r TermsResp) SizeBytes() int {
	n := 4
	for _, t := range r.Terms {
		n += t.SizeBytes()
	}
	return n
}

// Node is one RDFPeers ring member: router and storage in one.
type Node struct {
	Chord *chord.Node
	Store *rdf.Graph

	net  *simnet.Network
	addr simnet.Addr
}

// HandleCall dispatches RDFPeers methods and delegates Chord routing.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if strings.HasPrefix(method, "chord.") {
		return n.Chord.HandleCall(at, method, req)
	}
	switch method {
	case MethodStore:
		r, ok := req.(StoreReq)
		if !ok {
			return nil, at, fmt.Errorf("rdfpeers: store payload %T", req)
		}
		n.Store.Add(r.Triple)
		return simnet.Bytes(1), at, nil
	case MethodMatch:
		r, ok := req.(MatchReq)
		if !ok {
			return nil, at, fmt.Errorf("rdfpeers: match payload %T", req)
		}
		return SolutionsResp{Sols: eval.MatchPattern(n.Store, r.Pattern)}, at, nil
	case MethodRange:
		r, ok := req.(RangeReq)
		if !ok {
			return nil, at, fmt.Errorf("rdfpeers: range payload %T", req)
		}
		return n.handleRange(at, r)
	case MethodIntersect:
		r, ok := req.(IntersectReq)
		if !ok {
			return nil, at, fmt.Errorf("rdfpeers: intersect payload %T", req)
		}
		return TermsResp{Terms: n.intersect(r)}, at, nil
	case MethodResult:
		return req, at, nil // delivered: the initiator holds it from here on
	default:
		return nil, at, fmt.Errorf("rdfpeers: unknown method %s", method)
	}
}

// intersect keeps the candidate subjects that also match the local pattern
// (substituting each candidate for the subject variable). A nil candidate
// list means "no constraint yet" and returns all local matching subjects.
func (n *Node) intersect(r IntersectReq) []rdf.Term {
	if r.Candidates == nil {
		seen := map[rdf.Term]bool{}
		var out []rdf.Term
		n.Store.ForEachMatch(r.Pattern, func(t rdf.Triple) bool {
			if !seen[t.S] {
				seen[t.S] = true
				out = append(out, t.S)
			}
			return true
		})
		sortTerms(out)
		return out
	}
	var out []rdf.Term
	for _, c := range r.Candidates {
		pat := r.Pattern
		pat.S = c
		if n.Store.CountMatch(pat) > 0 {
			out = append(out, c)
		}
	}
	return out
}

func sortTerms(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return rdf.Compare(ts[i], ts[j]) < 0 })
}

// System is an RDFPeers deployment.
type System struct {
	net      *simnet.Network
	bits     uint
	nodes    map[simnet.Addr]*Node
	numRange NumericRange
	// traceSeq allocates deterministic trace identifiers; the system is
	// driven single-threaded, so a plain counter suffices.
	traceSeq uint64
}

// traceOp opens a trace for one RDFPeers operation when a recorder is
// attached to the network; see overlay.System.traceOp.
func (s *System) traceOp(name string, node simnet.Addr) (trace.TraceContext, func(start, end simnet.VTime)) {
	rec := s.net.Recorder()
	if rec == nil {
		return trace.TraceContext{}, nil
	}
	s.traceSeq++
	tc := trace.Root(s.traceSeq)
	return tc, func(start, end simnet.VTime) {
		rec.Record(trace.Span{
			Query: tc.Query,
			ID:    tc.Span,
			Kind:  trace.KindOp,
			Name:  name,
			From:  string(node),
			Start: int64(start),
			End:   int64(end),
		})
	}
}

// NewSystem creates an empty RDFPeers ring over a fresh simulated network
// with the given cost model.
func NewSystem(bits uint, netCfg simnet.Config) *System {
	if bits == 0 || bits > 64 {
		bits = 32
	}
	return &System{
		net:   simnet.New(netCfg),
		bits:  bits,
		nodes: map[simnet.Addr]*Node{},
	}
}

// Net exposes the simulated network for metrics.
func (s *System) Net() *simnet.Network { return s.net }

// AddNode joins a ring member. The node is registered and entered into the
// membership before the ring join; a failed join removes both again.
func (s *System) AddNode(addr simnet.Addr, at simnet.VTime) (*Node, simnet.VTime, error) {
	if _, dup := s.nodes[addr]; dup {
		return nil, at, fmt.Errorf("rdfpeers: node %s exists", addr)
	}
	n := &Node{
		Chord: chord.NewNode(s.net, addr, chord.HashID(string(addr), s.bits), chord.Config{Bits: s.bits}),
		Store: rdf.NewGraph(),
		net:   s.net,
		addr:  addr,
	}
	s.net.Register(addr, simnet.HandlerFunc(n.HandleCall))
	// The smallest member address bootstraps the join, so one build
	// sequence routes the same messages every run.
	var bootstrap simnet.Addr
	for a := range s.nodes {
		if bootstrap == "" || a < bootstrap {
			bootstrap = a
		}
	}
	s.nodes[addr] = n
	now := at
	if bootstrap == "" {
		n.Chord.Create()
		return n, now, nil
	}
	done, err := n.Chord.Join(bootstrap, now)
	if err != nil {
		delete(s.nodes, addr)
		s.net.Deregister(addr)
		return nil, done, err
	}
	return n, s.Converge(done), nil
}

// Converge stabilizes the ring.
func (s *System) Converge(at simnet.VTime) simnet.VTime {
	nodes := make([]*chord.Node, 0, len(s.nodes))
	addrs := make([]simnet.Addr, 0, len(s.nodes))
	for a := range s.nodes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		nodes = append(nodes, s.nodes[a].Chord)
	}
	return chord.Converge(nodes, at)
}

// attrKeys returns the three storage keys of a triple: hash(s), hash(p),
// hash(o), each in its own domain.
func (s *System) attrKeys(t rdf.Triple) [3]chord.ID {
	return [3]chord.ID{
		chord.HashID("s\x00"+t.S.String(), s.bits),
		chord.HashID("p\x00"+t.P.String(), s.bits),
		chord.HashID("o\x00"+t.O.String(), s.bits),
	}
}

// Store inserts a triple from the given provider: the full triple is
// routed to and stored at three ring places. This is the ingest cost the
// paper's hybrid design avoids.
func (s *System) Store(from simnet.Addr, t rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	now := at
	ak := s.attrKeys(t)
	keys := ak[:]
	if k, ok := s.rangeKey(t); ok {
		keys = append(keys, k)
	}
	tc, finish := s.traceOp("rdfpeers.store_op", from)
	for ki, key := range keys {
		owner, _, done, err := s.resolveTraced(from, key, tc.Child(uint64(2*ki)), now)
		now = done
		if err != nil {
			return now, err
		}
		_, done, err = s.net.CallRetry(from, owner, MethodStore, StoreReq{Triple: t, TC: tc.Child(uint64(2*ki + 1))}, now)
		now = done
		if err != nil {
			return now, err
		}
	}
	if finish != nil {
		finish(at, now)
	}
	return now, nil
}

// StoreAll inserts a batch of triples.
func (s *System) StoreAll(from simnet.Addr, ts []rdf.Triple, at simnet.VTime) (simnet.VTime, error) {
	now := at
	for _, t := range ts {
		done, err := s.Store(from, t, now)
		now = done
		if err != nil {
			return now, err
		}
	}
	return now, nil
}

func (s *System) resolve(from simnet.Addr, key chord.ID, at simnet.VTime) (simnet.Addr, int, simnet.VTime, error) {
	return s.resolveTraced(from, key, trace.TraceContext{}, at)
}

func (s *System) resolveTraced(from simnet.Addr, key chord.ID, tc trace.TraceContext, at simnet.VTime) (simnet.Addr, int, simnet.VTime, error) {
	entry := from
	if _, ok := s.nodes[from]; !ok {
		for a := range s.nodes {
			entry = a
			break
		}
	}
	resp, done, err := s.net.CallRetry(from, entry, chord.MethodFindSuccessor, chord.FindReq{Target: key, TC: tc}, at)
	if err != nil {
		return "", 0, done, err
	}
	fr := resp.(chord.FindResp)
	return fr.Node.Addr, fr.Hops, done, nil
}

// patternKey picks the routing key for a pattern following RDFPeers:
// subject if bound, else object, else predicate. The all-variable pattern
// has no key (flood).
func (s *System) patternKey(pat rdf.Triple) (chord.ID, bool) {
	switch {
	case pat.S.IsConcrete():
		return chord.HashID("s\x00"+pat.S.String(), s.bits), true
	case pat.O.IsConcrete():
		return chord.HashID("o\x00"+pat.O.String(), s.bits), true
	case pat.P.IsConcrete():
		return chord.HashID("p\x00"+pat.P.String(), s.bits), true
	default:
		return 0, false
	}
}

// QueryPattern resolves a single triple pattern: route to the responsible
// node by the most selective bound attribute and match there.
func (s *System) QueryPattern(from simnet.Addr, pat rdf.Triple, at simnet.VTime) (eval.Solutions, simnet.VTime, error) {
	tc, finishOp := s.traceOp("rdfpeers.query", from)
	key, ok := s.patternKey(pat)
	if !ok {
		// flood all nodes and union (deduplicating: triples are stored at
		// three places, so unconstrained scans see copies)
		// Sorted fan-out keeps branch-derived span identifiers (and
		// accounting order) deterministic.
		addrs := make([]simnet.Addr, 0, len(s.nodes))
		for a := range s.nodes {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		var acc eval.Dedup
		now := at
		finish := at
		for fi, a := range addrs {
			resp, done, err := s.net.CallRetry(from, a, MethodMatch, MatchReq{Pattern: pat, TC: tc.Child(uint64(fi))}, now)
			if err != nil {
				continue
			}
			acc.Add(resp.(SolutionsResp).Sols)
			finish = simnet.MaxTime(finish, done)
		}
		if finishOp != nil {
			finishOp(at, finish)
		}
		return acc.Solutions(), finish, nil
	}
	owner, _, now, err := s.resolveTraced(from, key, tc.Child(1), at)
	if err != nil {
		return nil, now, err
	}
	resp, now, err := s.net.CallRetry(from, owner, MethodMatch, MatchReq{Pattern: pat, TC: tc.Child(0)}, now)
	if err != nil {
		return nil, now, err
	}
	if finishOp != nil {
		finishOp(at, now)
	}
	return eval.Distinct(resp.(SolutionsResp).Sols), now, nil
}

// QueryConjunctive resolves a conjunctive multi-attribute query: all
// patterns share the same subject variable and have bound predicate and
// object. Candidate subjects are obtained at the first pattern's node and
// shipped from node to node for intersection (the RDFPeers recursive
// algorithm); the final candidates are returned to the initiator.
func (s *System) QueryConjunctive(from simnet.Addr, subjectVar string, patterns []rdf.Triple, at simnet.VTime) ([]rdf.Term, simnet.VTime, error) {
	if len(patterns) == 0 {
		return nil, at, fmt.Errorf("rdfpeers: empty conjunction")
	}
	for _, p := range patterns {
		if !p.S.IsVar() || p.S.Value != subjectVar || !p.P.IsConcrete() || !p.O.IsConcrete() {
			return nil, at, fmt.Errorf("rdfpeers: conjunctive queries require (?%s, p, o) patterns, got %v", subjectVar, p)
		}
	}
	tc, finishOp := s.traceOp("rdfpeers.query", from)
	var candidates []rdf.Term
	now := at
	prev := from
	// Hop contexts chain: each intersection hop derives from the previous
	// one, mirroring the recursive MAQ forwarding.
	linkTC := tc
	for i, pat := range patterns {
		key, _ := s.patternKey(pat) // object is bound → object key
		owner, _, done, err := s.resolveTraced(prev, key, linkTC.Child(0), now)
		now = done
		if err != nil {
			return nil, now, err
		}
		hopTC := linkTC.Child(1)
		cands := candidates
		if i == 0 {
			cands = nil
		}
		resp, done, err := s.net.CallRetry(prev, owner, MethodIntersect,
			IntersectReq{Pattern: pat, Candidates: cands, TC: hopTC}, now)
		now = done
		if err != nil {
			return nil, now, err
		}
		candidates = resp.(TermsResp).Terms
		if len(candidates) == 0 {
			return nil, now, nil
		}
		prev = owner
		linkTC = hopTC
	}
	// ship the final candidates back to the initiator
	got, done, err := s.net.ForwardRetry(prev, from, MethodResult, TermsResp{Terms: candidates}, now)
	if err != nil {
		return nil, done, err
	}
	if finishOp != nil {
		finishOp(at, done)
	}
	return got.(TermsResp).Terms, done, nil
}
