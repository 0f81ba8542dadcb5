package rdfpeers

import (
	"fmt"
	"sort"

	"adhocshare/internal/chord"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// Range queries: RDFPeers resolves numeric range queries over the object
// position with a *locality-preserving hash* — numeric values map onto the
// identifier circle in order, so the triples of an interval [lo, hi] live
// on a contiguous arc of the ring, and a range query walks successor
// pointers along that arc (Cai & Frank, Sect. II of the paper).
//
// NumericRange configures the value interval mapped across the circle.
type NumericRange struct {
	Min, Max float64
}

// valid reports whether the range is usable.
func (r NumericRange) valid() bool { return r.Max > r.Min }

// lph maps a numeric value onto the identifier circle, preserving order.
func (s *System) lph(v float64) chord.ID {
	r := s.numRange
	if v < r.Min {
		v = r.Min
	}
	if v > r.Max {
		v = r.Max
	}
	span := float64(uint64(1) << s.bits)
	pos := (v - r.Min) / (r.Max - r.Min) * (span - 1)
	return chord.ID(pos)
}

// EnableRangeIndex turns on the locality-preserving numeric index for
// object values in [min, max]. Triples stored after this call whose object
// is numeric gain a fourth copy at the LPH position.
func (s *System) EnableRangeIndex(min, max float64) error {
	if max <= min {
		return fmt.Errorf("rdfpeers: invalid numeric range [%g, %g]", min, max)
	}
	s.numRange = NumericRange{Min: min, Max: max}
	return nil
}

// rangeKeys returns the LPH key for a triple's numeric object, if any.
func (s *System) rangeKey(t rdf.Triple) (chord.ID, bool) {
	if !s.numRange.valid() {
		return 0, false
	}
	v, ok := rdf.NumericValue(t.O)
	if !ok {
		return 0, false
	}
	return s.lph(v), true
}

// QueryRange resolves the range query (?s, p, ?o) with lo ≤ ?o ≤ hi: it
// routes to the node owning lph(lo) and walks successors along the arc up
// to lph(hi), collecting matching triples. It returns the solutions, the
// number of nodes visited and the virtual completion time.
func (s *System) QueryRange(from simnet.Addr, p rdf.Term, lo, hi float64, at simnet.VTime) ([]rdf.Triple, int, simnet.VTime, error) {
	if !s.numRange.valid() {
		return nil, 0, at, fmt.Errorf("rdfpeers: range index not enabled")
	}
	if hi < lo {
		return nil, 0, at, fmt.Errorf("rdfpeers: empty range [%g, %g]", lo, hi)
	}
	startKey, endKey := s.lph(lo), s.lph(hi)
	// Route to the first arc node (counted as routing cost), then chain
	// through the owners of the key arc [startKey, endKey] in ring order.
	owner, _, now, err := s.resolve(from, startKey, at)
	if err != nil {
		return nil, 0, now, err
	}
	arc := s.arcOwners(startKey, endKey, owner)
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	visited := 0
	prev := from
	req := RangeReq{Predicate: p, Lo: lo, Hi: hi}
	for _, cur := range arc {
		resp, done, err := s.net.CallRetry(prev, cur, MethodRange, req, now)
		now = done
		if err != nil {
			continue // skip unreachable arc nodes
		}
		visited++
		rr := resp.(RangeResp)
		for _, t := range rr.Triples {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		prev = cur
	}
	// Sorted before the send: the initiator takes over out's backing array.
	rdf.SortTriples(out)
	// results travel back to the initiator
	got, done, err := s.net.ForwardRetry(prev, from, MethodResult, TriplesPayload{Triples: out}, now)
	if err != nil {
		return nil, visited, done, err
	}
	return got.(TriplesPayload).Triples, visited, done, nil
}

// arcOwners lists the nodes whose key span intersects the (non-wrapping)
// key arc [startKey, endKey], in ring order starting at the given first
// owner. A node with predecessor p owns the span (p, id]; the node with
// the smallest identifier additionally owns the wrap segment.
func (s *System) arcOwners(startKey, endKey chord.ID, first simnet.Addr) []simnet.Addr {
	type member struct {
		id   chord.ID
		addr simnet.Addr
	}
	members := make([]member, 0, len(s.nodes))
	for a, n := range s.nodes {
		members = append(members, member{id: n.Chord.ID(), addr: a})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	var owners []simnet.Addr
	for i, m := range members {
		var covers bool
		if i == 0 {
			// wrap node: owns (lastID, max] ∪ [0, id]
			last := members[len(members)-1].id
			covers = endKey > last || startKey <= m.id
		} else {
			p := members[i-1].id
			covers = p < endKey && m.id >= startKey
		}
		if covers {
			owners = append(owners, m.addr)
		}
	}
	// rotate so the resolved first owner leads (ring-order chain)
	for i, a := range owners {
		if a == first {
			owners = append(owners[i:], owners[:i]...)
			break
		}
	}
	return owners
}

// RangeReq asks a ring node for its locally stored numeric triples with
// the given predicate and object in [Lo, Hi].
type RangeReq struct {
	Predicate rdf.Term
	Lo, Hi    float64
}

// SizeBytes implements simnet.Payload.
func (r RangeReq) SizeBytes() int {
	return r.Predicate.SizeBytes() + boundWidth(r.Lo) + boundWidth(r.Hi)
}

// boundWidth is the wire width of one float64 range bound.
func boundWidth(float64) int { return 8 }

// RangeResp carries matching triples.
type RangeResp struct {
	Triples []rdf.Triple
}

// SizeBytes implements simnet.Payload.
func (r RangeResp) SizeBytes() int {
	n := 4
	for _, t := range r.Triples {
		n += t.SizeBytes()
	}
	return n
}

// TriplesPayload is a plain triple batch payload.
type TriplesPayload struct {
	Triples []rdf.Triple
}

// SizeBytes implements simnet.Payload.
func (r TriplesPayload) SizeBytes() int {
	n := 4
	for _, t := range r.Triples {
		n += t.SizeBytes()
	}
	return n
}

// MethodRange is the range sub-query RPC.
const MethodRange = "rdfpeers.range"

// handleRange scans the local store for numeric matches.
func (n *Node) handleRange(at simnet.VTime, req RangeReq) (simnet.Payload, simnet.VTime, error) {
	var out []rdf.Triple
	pat := rdf.Triple{S: rdf.NewVar("s"), P: req.Predicate, O: rdf.NewVar("o")}
	if req.Predicate.IsZero() {
		pat.P = rdf.NewVar("p")
	}
	n.Store.ForEachMatch(pat, func(t rdf.Triple) bool {
		if v, ok := rdf.NumericValue(t.O); ok && v >= req.Lo && v <= req.Hi {
			out = append(out, t)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		vi, _ := rdf.NumericValue(out[i].O)
		vj, _ := rdf.NumericValue(out[j].O)
		return vi < vj
	})
	return RangeResp{Triples: out}, at, nil
}
