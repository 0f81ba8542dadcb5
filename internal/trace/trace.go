// Package trace is the zero-overhead-when-disabled tracing substrate of
// the simulated deployment. Spans are keyed to *virtual* time — the VTime
// the simnet cost model charges — never wall time, so a seeded run always
// produces byte-identical traces and the observability layer can be part
// of regression evidence instead of noise.
//
// The package is a leaf: it deliberately imports nothing from the rest of
// the repository but the boundedlog container (times are int64
// nanoseconds, node addresses are plain strings), so simnet itself can
// record message spans without an import cycle. Causality crosses the wire as a TraceContext carried inside RPC
// payloads; contexts contribute zero bytes to the modeled payload size
// (tracing must not perturb the cost model) and child span identifiers
// are *derived* — a deterministic hash of the parent span and a caller
// chosen sequence number — never drawn from clocks or global counters,
// which would break seeded reproducibility under concurrent fan-out.
package trace

import (
	"sort"

	"adhocshare/internal/boundedlog"
	"adhocshare/internal/lockcheck"
)

// TraceContext identifies one span within one query (or system operation)
// trace. It travels inside RPC payloads: the sender derives a child
// context per outgoing message, the fabric records the message span under
// Span/Parent, and the receiver parents any nested work on Span.
type TraceContext struct {
	// Query identifies the trace (one distributed query or one system
	// operation). Zero means "not traced".
	Query uint64
	// Span is this message's (or operation's) span identifier.
	Span uint64
	// Parent is the span this one is causally nested under (zero = root).
	Parent uint64
}

// SizeBytes implements the simnet.Payload contract with zero: trace
// metadata travels out of band of the modeled cost, so enabling tracing
// never changes message bytes, VTimes or routing decisions.
func (TraceContext) SizeBytes() int { return 0 }

// ResponseSeq is the child sequence number reserved for the response leg
// of a call; callers deriving request children must use smaller values.
const ResponseSeq = ^uint64(0)

// Child derives the deterministic context of the seq-th child of this
// span. Sequence numbers must be deterministic themselves (loop indexes,
// Parallel branch indexes, per-query counters) — never clocks or shared
// atomics — and distinct per parent.
func (tc TraceContext) Child(seq uint64) TraceContext {
	return TraceContext{Query: tc.Query, Span: mix(tc.Span, seq), Parent: tc.Span}
}

// Root builds the root context of a new trace. The query identifier comes
// from a deterministic per-deployment counter.
func Root(query uint64) TraceContext {
	return TraceContext{Query: query, Span: mix(query, 0x5eed)}
}

// mix is a splitmix64-style finalizer over the (parent, seq) pair: cheap,
// allocation-free and well distributed, so derived span identifiers are
// unique for all practical trace sizes.
func mix(a, b uint64) uint64 {
	z := a ^ (b+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 { // keep zero reserved for "no span"
		z = 1
	}
	return z
}

// Span kinds.
const (
	// KindMessage is one payload transfer over the fabric (a call's
	// request and response legs are two message spans).
	KindMessage = "msg"
	// KindOp is an engine- or overlay-level operation (a query, a pattern
	// execution, a publication) grouping the messages it caused.
	KindOp = "op"
)

// Span is one completed interval of virtual time. The simulator is
// synchronous, so spans are recorded whole (no open/close halves).
type Span struct {
	// Query is the trace identifier (zero for untraced fabric traffic).
	Query uint64
	// ID and Parent link the span into the trace tree.
	ID     uint64
	Parent uint64
	// Kind is KindMessage or KindOp.
	Kind string
	// Name is the RPC method (messages) or operation name (ops).
	Name string
	// From and To are node addresses; To is empty for local operations.
	From string
	To   string
	// Start and End are virtual times in nanoseconds since the simulation
	// epoch (End ≥ Start; for messages, departure and arrival).
	Start int64
	End   int64
	// Bytes is the modeled payload size (messages only).
	Bytes int
	// Note carries a short human annotation (strategy, pattern, error).
	Note string
}

// IsResponse reports whether the span is the response leg of a message:
// its identifier derives from its parent's under ResponseSeq.
func (s Span) IsResponse() bool {
	return s.Kind == KindMessage && s.ID == mix(s.Parent, ResponseSeq)
}

// Duration returns the span's virtual extent in nanoseconds.
func (s Span) Duration() int64 { return s.End - s.Start }

// Recorder receives completed spans. A nil Recorder disables tracing; the
// fabric and the engines check for nil once per operation and skip all
// span construction on the disabled path.
type Recorder interface {
	Record(s Span)
}

// Buffer is the standard Recorder: it accumulates spans in memory and
// exposes them in a canonical order. Safe for concurrent use (several
// client goroutines may drive one deployment).
//
// By default the buffer grows without bound — the right behaviour for
// bounded experiments, but a silent memory leak under long storm runs.
// SetLimit (or NewRingBuffer) turns on ring mode: at capacity, the
// canonically smallest span is evicted for each new one. Because trace
// identifiers are allocated monotonically per deployment, the
// canonically smallest span belongs to the oldest trace (untraced
// query-0 spans go first), so ring mode retains the most recent traces.
// Eviction is by the canonical order, never insertion order, so the
// retained contents of a seeded run are byte-identical under any
// interleaving of the client goroutines.
type Buffer struct {
	mu  lockcheck.Mutex
	log *boundedlog.Log[Span] // unbounded until SetLimit
}

// NewBuffer creates an empty, unbounded span buffer.
func NewBuffer() *Buffer { return NewRingBuffer(0) }

// NewRingBuffer creates a span buffer capped at limit spans (ring mode).
func NewRingBuffer(limit int) *Buffer {
	return &Buffer{log: boundedlog.New(limit, spanLess)}
}

// SetLimit caps the buffer at limit spans (≤ 0 removes the cap). Already
// recorded spans beyond the new limit are evicted canonically-smallest
// first.
func (b *Buffer) SetLimit(limit int) {
	b.mu.Lock()
	b.log.SetLimit(limit)
	b.mu.Unlock()
}

// Limit returns the ring-mode capacity (0 = unbounded).
func (b *Buffer) Limit() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Limit()
}

// Record implements Recorder. In ring mode the canonically smallest span
// is evicted once the buffer is full, and recording allocates nothing.
func (b *Buffer) Record(s Span) {
	b.mu.Lock()
	b.log.Add(s)
	b.mu.Unlock()
}

// Len reports the number of recorded spans.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Len()
}

// Reset discards all recorded spans.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.log.Reset()
	b.mu.Unlock()
}

// Spans returns a copy of the recorded spans in canonical order: sorted
// by (Query, Start, End, ID, ...) with a total tie-break, so two runs
// that recorded the same spans — in whatever goroutine interleaving —
// always return byte-identical sequences.
func (b *Buffer) Spans() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.AppendSorted(nil)
}

// Queries lists the distinct non-zero trace identifiers present, sorted.
func (b *Buffer) Queries() []uint64 {
	out := []uint64{}
	for _, s := range b.Spans() {
		if s.Query != 0 && (len(out) == 0 || out[len(out)-1] != s.Query) {
			out = append(out, s.Query)
		}
	}
	return out
}

// SortSpans orders spans canonically (total order over every field, so
// equal span multisets sort byte-identically).
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spanLess(&spans[i], &spans[j]) })
}

// spanLess is the canonical total order over spans: every field
// participates, so equal span multisets sort byte-identically.
func spanLess(a, b *Span) bool {
	if a.Query != b.Query {
		return a.Query < b.Query
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	return a.Note < b.Note
}

// Carrier is implemented by RPC payloads that carry a TraceContext. The
// fabric extracts the context with CtxOf to attribute message spans.
type Carrier interface {
	TraceCtx() TraceContext
}

// CtxOf returns the trace context carried by a payload, or the zero
// context. It never allocates, so the fabric can call it per message.
func CtxOf(v any) TraceContext {
	if c, ok := v.(Carrier); ok {
		return c.TraceCtx()
	}
	return TraceContext{}
}
