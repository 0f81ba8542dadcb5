package flight

import (
	"fmt"
	"sort"
)

// Monitor names, used as the Monitor field of typed violations. The
// event-stream monitors (vtime-monotonic, traffic-conservation) live
// here; the topology probes (ring-consistency, coverage) live next to
// the overlay state they inspect and use the same names.
const (
	MonitorMonotonic    = "vtime-monotonic"
	MonitorConservation = "traffic-conservation"
	MonitorRing         = "ring-consistency"
	MonitorCoverage     = "coverage"
)

// Violation is one typed invariant breach.
type Violation struct {
	// Monitor is the Monitor* constant that fired.
	Monitor string
	// Nodes are the offending nodes, sorted.
	Nodes []string
	// VT is the virtual time the violation is attributed to.
	VT int64
	// Detail is a one-line human description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] vt=%d nodes=%v: %s", v.Monitor, v.VT, v.Nodes, v.Detail)
}

// SortViolations orders violations deterministically (VT, monitor,
// detail).
func SortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Monitor != b.Monitor {
			return a.Monitor < b.Monitor
		}
		return a.Detail < b.Detail
	})
}

// CheckMonotonic verifies per-node VTime sanity over the retained
// events: every event's interval is well formed (0 ≤ VT ≤ End). It does
// not check the order events were emitted in — a node's ring holds them
// in canonical order, VT first, whatever order they arrived in.
func (r *Recorder) CheckMonotonic() []Violation {
	if r == nil {
		return nil
	}
	var out []Violation
	for _, node := range r.Nodes() {
		for _, e := range r.NodeEvents(node) {
			if e.VT < 0 || e.End < e.VT {
				out = append(out, Violation{
					Monitor: MonitorMonotonic,
					Nodes:   []string{node},
					VT:      e.VT,
					Detail:  fmt.Sprintf("event %s %s has inverted interval [%d,%d]", e.Kind, e.Method, e.VT, e.End),
				})
			}
		}
	}
	return out
}

// CheckConservation verifies traffic conservation against the fabric's
// own accounting: every accounted message leg since arming must have
// produced exactly one terminal leg event — delivered, recorded lost, or
// unreachable. accountedMsgs is the fabric's message count delta since
// the recorder was armed.
func (r *Recorder) CheckConservation(accountedMsgs int64) []Violation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	observed := r.counts[KindDeliver] + r.counts[KindLost] + r.counts[KindUnreachable]
	delivered, lost, unreachable := r.counts[KindDeliver], r.counts[KindLost], r.counts[KindUnreachable]
	r.mu.Unlock()
	if observed == accountedMsgs {
		return nil
	}
	return []Violation{{
		Monitor: MonitorConservation,
		Detail: fmt.Sprintf("accounted %d message legs but observed %d (deliver=%d lost=%d unreachable=%d)",
			accountedMsgs, observed, delivered, lost, unreachable),
	}}
}
