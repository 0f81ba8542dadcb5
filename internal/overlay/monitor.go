package overlay

// Live invariant monitors. The flight recorder (internal/flight) captures
// the event stream; the probes here inspect overlay state directly —
// ring pointer agreement and location-table coverage against published
// ground truth — and the event-stream checks
// (per-node VTime monotonicity, traffic conservation) are delegated to
// the recorder. All checks are read-only and deterministic: violations
// come out sorted, so same-seed runs report identical findings.

import (
	"fmt"
	"sort"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
)

// Monitors binds a deployment to a flight recorder and a traffic
// baseline, so conservation is checked over exactly the armed window.
type Monitors struct {
	sys      *System
	rec      *flight.Recorder
	baseMsgs int64
}

// Arm attaches a fresh flight recorder (ringSize events per node; ≤ 0 for
// the default) to the deployment's fabric and returns monitors bound to
// it. The traffic-conservation baseline is the fabric's accounted message
// count at arm time.
func Arm(sys *System, ringSize int) *Monitors {
	m := &Monitors{sys: sys, rec: flight.NewRecorder(ringSize)}
	m.baseMsgs = sys.Net().Metrics().Messages
	sys.Net().SetFlightRecorder(m.rec)
	return m
}

// Recorder returns the armed flight recorder.
func (m *Monitors) Recorder() *flight.Recorder { return m.rec }

// liveIndex returns the live index nodes sorted by ring identifier.
func (m *Monitors) liveIndex() []*IndexNode {
	var out []*IndexNode
	for _, n := range m.sys.IndexNodes() {
		if m.sys.Net().Alive(n.Addr()) {
			out = append(out, n)
		}
	}
	return out
}

// CheckRing verifies successor/predecessor agreement and that the
// successor chain starting at the smallest live node closes over every
// live index node (no orphaned keyspace). Single-node rings are trivially
// consistent.
func (m *Monitors) CheckRing() []flight.Violation {
	live := m.liveIndex()
	var out []flight.Violation
	if len(live) < 2 {
		return nil
	}
	byAddr := map[simnet.Addr]*IndexNode{}
	for _, n := range live {
		byAddr[n.Addr()] = n
	}
	for _, n := range live {
		succ := n.Chord.Successor()
		sn, ok := byAddr[succ.Addr]
		if !ok {
			out = append(out, flight.Violation{
				Monitor: flight.MonitorRing,
				Nodes:   []string{string(n.Addr())},
				Detail:  fmt.Sprintf("successor %s is not a live index node", succ.Addr),
			})
			continue
		}
		if pred := sn.Chord.Predecessor(); pred.Addr != n.Addr() {
			out = append(out, flight.Violation{
				Monitor: flight.MonitorRing,
				Nodes:   sortedNodes(string(n.Addr()), string(succ.Addr)),
				Detail:  fmt.Sprintf("pred(succ(%s)) = %q, want %s", n.Addr(), pred.Addr, n.Addr()),
			})
		}
	}
	// Orphan check: follow successor pointers from the smallest-ID live
	// node; every live node must be reached within len(live) hops.
	visited := map[simnet.Addr]bool{}
	cur := live[0]
	for i := 0; i < len(live) && cur != nil && !visited[cur.Addr()]; i++ {
		visited[cur.Addr()] = true
		cur = byAddr[cur.Chord.Successor().Addr]
	}
	var orphans []string
	for _, n := range live {
		if !visited[n.Addr()] {
			orphans = append(orphans, string(n.Addr()))
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		out = append(out, flight.Violation{
			Monitor: flight.MonitorRing,
			Nodes:   orphans,
			Detail:  fmt.Sprintf("%d live nodes orphaned from the successor cycle", len(orphans)),
		})
	}
	flight.SortViolations(out)
	return out
}

// CheckCoverage recomputes the published ground truth (every shared triple
// of every storage node, keyed like Publish/Republish) and verifies the
// responsible live index node holds a posting with exactly that frequency
// for each (key, provider).
func (m *Monitors) CheckCoverage() []flight.Violation {
	live := m.liveIndex()
	if len(live) == 0 {
		return nil
	}
	bits := m.sys.Config().Bits
	// truth[key][provider] = published frequency.
	truth := map[chord.ID]map[simnet.Addr]int{}
	for _, sn := range m.sys.StorageNodes() {
		count := func(g *rdf.Graph) {
			for _, t := range g.Triples() {
				for _, key := range TripleKeys(t, bits) {
					if truth[key] == nil {
						truth[key] = map[simnet.Addr]int{}
					}
					truth[key][sn.Addr()]++
				}
			}
		}
		count(sn.Graph)
		for _, name := range sn.GraphNames() {
			count(sn.NamedGraph(name))
		}
	}
	keys := make([]chord.ID, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []flight.Violation
	for _, key := range keys {
		owner := responsibleNode(live, key)
		got := map[simnet.Addr]int{}
		for _, p := range owner.Table.Get(key) {
			got[p.Node] = p.Freq
		}
		providers := make([]simnet.Addr, 0, len(truth[key]))
		for p := range truth[key] {
			providers = append(providers, p)
		}
		sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
		for _, p := range providers {
			want := truth[key][p]
			if got[p] != want {
				out = append(out, flight.Violation{
					Monitor: flight.MonitorCoverage,
					Nodes:   sortedNodes(string(owner.Addr()), string(p)),
					Detail:  fmt.Sprintf("key %v: owner %s has freq %d for provider %s, published %d", key, owner.Addr(), got[p], p, want),
				})
			}
		}
	}
	flight.SortViolations(out)
	return out
}

// responsibleNode returns the live index node owning the key: the first
// node (by ring identifier) with ID ≥ key, wrapping to the smallest.
// nodes must be sorted by ID and non-empty.
func responsibleNode(nodes []*IndexNode, key chord.ID) *IndexNode {
	for _, n := range nodes {
		if n.ID() >= key {
			return n
		}
	}
	return nodes[0]
}

// CheckEvents runs the event-stream monitors: per-node VTime monotonicity
// and traffic conservation (every accounted message leg since arming is a
// delivery, a recorded loss, or an unreachable mark).
func (m *Monitors) CheckEvents() []flight.Violation {
	out := m.rec.CheckMonotonic()
	delta := m.sys.Net().Metrics().Messages - m.baseMsgs
	out = append(out, m.rec.CheckConservation(delta)...)
	flight.SortViolations(out)
	return out
}

// CheckAll runs every monitor and returns the merged, sorted violations.
func (m *Monitors) CheckAll() []flight.Violation {
	var out []flight.Violation
	out = append(out, m.CheckEvents()...)
	out = append(out, m.CheckRing()...)
	out = append(out, m.CheckCoverage()...)
	flight.SortViolations(out)
	return out
}

// Incident builds a bounded causality report for the given violations
// (last lastN events of the implicated nodes, merged by VTime).
func (m *Monitors) Incident(title string, violations []flight.Violation, lastN int) *flight.Incident {
	return flight.BuildIncident(m.rec, title, violations, nil, lastN, 0, nil)
}

func sortedNodes(nodes ...string) []string {
	sort.Strings(nodes)
	return nodes
}
