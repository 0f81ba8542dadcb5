package trace

import (
	"fmt"
	"io"
	"sort"

	"adhocshare/internal/lockcheck"
)

// LatencyBuckets are the upper bounds (virtual nanoseconds, inclusive) of
// the fixed exponential histogram used for per-method VTime latencies; a
// final implicit +Inf bucket catches the rest. Fixed bounds keep the
// snapshot shape — and therefore golden files — stable across runs.
var LatencyBuckets = []int64{
	1e6,   // 1ms
	2e6,   // 2ms
	5e6,   // 5ms
	10e6,  // 10ms
	20e6,  // 20ms
	50e6,  // 50ms
	100e6, // 100ms
	200e6, // 200ms
	500e6, // 500ms
	1e9,   // 1s
	2e9,   // 2s
	5e9,   // 5s
}

// bucketOf returns the histogram slot of a latency (len(LatencyBuckets)
// is the overflow slot).
func bucketOf(d int64) int {
	for i, ub := range LatencyBuckets {
		if d <= ub {
			return i
		}
	}
	return len(LatencyBuckets)
}

// MetricsEntry aggregates one (node, method) cell: message count, bytes
// and the VTime-latency histogram of the messages that node *sent*.
type MetricsEntry struct {
	Node    string
	Method  string
	Count   int64
	Bytes   int64
	Latency []int64 // len(LatencyBuckets)+1 bucket counts
}

// MetricsSnapshot is the deterministic point-in-time state of a Registry:
// entries sorted by (node, method). Seeded runs produce byte-identical
// snapshots, which the determinism tests enforce.
type MetricsSnapshot struct {
	Entries []MetricsEntry
}

// Get returns the entry of one (node, method) cell.
func (s MetricsSnapshot) Get(node, method string) (MetricsEntry, bool) {
	for _, e := range s.Entries {
		if e.Node == node && e.Method == method {
			return e, true
		}
	}
	return MetricsEntry{}, false
}

// Registry aggregates per-node × per-method counters and VTime-latency
// histograms from message spans. It implements Recorder, so it can be
// attached to the fabric directly or combined with a Buffer via Tee.
type Registry struct {
	mu    lockcheck.Mutex
	cells map[[2]string]*MetricsEntry
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{cells: map[[2]string]*MetricsEntry{}}
}

// Record implements Recorder: message spans are aggregated under their
// sending node; op spans are ignored.
func (r *Registry) Record(s Span) {
	if s.Kind != KindMessage {
		return
	}
	key := [2]string{s.From, s.Name}
	r.mu.Lock()
	e, ok := r.cells[key]
	if !ok {
		e = &MetricsEntry{Node: s.From, Method: s.Name,
			Latency: make([]int64, len(LatencyBuckets)+1)}
		r.cells[key] = e
	}
	e.Count++
	e.Bytes += int64(s.Bytes)
	e.Latency[bucketOf(s.Duration())]++
	r.mu.Unlock()
}

// Snapshot returns the deterministic aggregate state.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	out := MetricsSnapshot{Entries: make([]MetricsEntry, 0, len(r.cells))}
	for _, e := range r.cells {
		c := *e
		c.Latency = append([]int64(nil), e.Latency...)
		out.Entries = append(out.Entries, c)
	}
	r.mu.Unlock()
	sort.Slice(out.Entries, func(i, j int) bool {
		if out.Entries[i].Node != out.Entries[j].Node {
			return out.Entries[i].Node < out.Entries[j].Node
		}
		return out.Entries[i].Method < out.Entries[j].Method
	})
	return out
}

// Reset zeroes the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.cells = map[[2]string]*MetricsEntry{}
	r.mu.Unlock()
}

// BuildMetrics folds a span slice into a snapshot (the offline equivalent
// of attaching a Registry).
func BuildMetrics(spans []Span) MetricsSnapshot {
	r := NewRegistry()
	for _, s := range spans {
		r.Record(s)
	}
	return r.Snapshot()
}

// tee fans spans out to several recorders.
type tee []Recorder

// Record implements Recorder.
func (t tee) Record(s Span) {
	for _, r := range t {
		r.Record(s)
	}
}

// Tee combines recorders: every span goes to each of them. Nil members
// are skipped; Tee() of no live recorders returns nil (disabled).
func Tee(rs ...Recorder) Recorder {
	var live tee
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	return live
}

// WriteMetrics renders a snapshot as an aligned per-(node, method) table
// with a compact latency summary (p50/max bucket upper bounds, virtual
// milliseconds). Entries are already in canonical (node, method) order, so
// the rendering of a seeded run is byte-identical.
func WriteMetrics(w io.Writer, snap MetricsSnapshot) error {
	if _, err := fmt.Fprintf(w, "%-10s %-28s %8s %12s %10s %10s\n",
		"node", "method", "msgs", "bytes", "p50-ms", "max-ms"); err != nil {
		return err
	}
	for _, e := range snap.Entries {
		if _, err := fmt.Fprintf(w, "%-10s %-28s %8d %12d %10s %10s\n",
			e.Node, e.Method, e.Count, e.Bytes,
			bucketLabel(quantileBucket(e, 0.5)), bucketLabel(maxBucket(e))); err != nil {
			return err
		}
	}
	return nil
}

// quantileBucket returns the index of the latency bucket containing the
// q-quantile of one entry's histogram (-1 for an empty histogram).
func quantileBucket(e MetricsEntry, q float64) int {
	target := int64(q * float64(e.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range e.Latency {
		seen += n
		if seen >= target {
			return i
		}
	}
	return -1
}

// maxBucket returns the index of the highest non-empty latency bucket.
func maxBucket(e MetricsEntry) int {
	for i := len(e.Latency) - 1; i >= 0; i-- {
		if e.Latency[i] > 0 {
			return i
		}
	}
	return -1
}

// bucketLabel renders a latency-bucket upper bound in virtual ms.
func bucketLabel(i int) string {
	switch {
	case i < 0:
		return "-"
	case i >= len(LatencyBuckets):
		return "+Inf"
	default:
		return fmt.Sprintf("<=%g", float64(LatencyBuckets[i])/1e6)
	}
}
