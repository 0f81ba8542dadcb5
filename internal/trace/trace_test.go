package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTraceContextContract(t *testing.T) {
	var zero TraceContext
	if zero.SizeBytes() != 0 {
		t.Error("TraceContext must contribute zero modeled bytes")
	}
	root := Root(7)
	if root.Query != 7 || root.Span == 0 || root.Parent != 0 {
		t.Errorf("Root(7) = %+v, want valid root of query 7", root)
	}
}

func TestChildDerivationDeterministic(t *testing.T) {
	root := Root(42)
	a, b := root.Child(3), root.Child(3)
	if a != b {
		t.Errorf("Child is not deterministic: %+v vs %+v", a, b)
	}
	if a.Parent != root.Span || a.Query != root.Query {
		t.Errorf("Child(3) = %+v does not nest under %+v", a, root)
	}
	if root.Child(3) == root.Child(4) {
		t.Error("sibling children must have distinct spans")
	}
	// Distinct across parents, sequences and the response leg, and never
	// zero (zero is reserved for "no span").
	seen := map[uint64]bool{}
	for q := uint64(1); q <= 20; q++ {
		tc := Root(q)
		for seq := uint64(0); seq < 50; seq++ {
			id := tc.Child(seq).Span
			if id == 0 {
				t.Fatalf("Child span id is zero for query %d seq %d", q, seq)
			}
			if seen[id] {
				t.Fatalf("span id collision at query %d seq %d", q, seq)
			}
			seen[id] = true
		}
		if resp := tc.Child(ResponseSeq); seen[resp.Span] {
			t.Fatalf("response leg collides for query %d", q)
		}
	}
}

func TestSortSpansTotalOrder(t *testing.T) {
	base := []Span{
		{Query: 2, ID: 9, Start: 5, End: 9, Kind: KindOp, Name: "b"},
		{Query: 1, ID: 3, Start: 5, End: 7, Kind: KindMessage, Name: "a", From: "n1", To: "n2", Bytes: 10},
		{Query: 1, ID: 4, Start: 5, End: 7, Kind: KindMessage, Name: "a", From: "n1", To: "n3", Bytes: 10},
		{Query: 1, ID: 2, Start: 1, End: 4, Kind: KindOp, Name: "q"},
	}
	want := append([]Span(nil), base...)
	SortSpans(want)
	for i := 0; i < 20; i++ {
		got := append([]Span(nil), base...)
		rand.New(rand.NewSource(int64(i))).Shuffle(len(got), func(a, b int) {
			got[a], got[b] = got[b], got[a]
		})
		SortSpans(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SortSpans is not a total order: shuffle %d gave %+v", i, got)
		}
	}
}

func TestBuffer(t *testing.T) {
	b := NewBuffer()
	b.Record(Span{Query: 2, ID: 5, Start: 10, End: 20, Kind: KindOp, Name: "late"})
	b.Record(Span{Query: 1, ID: 1, Start: 0, End: 5, Kind: KindMessage, Name: "early"})
	b.Record(Span{Query: 0, ID: 9, Start: 3, End: 4, Kind: KindMessage, Name: "untraced"})
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	spans := b.Spans()
	if spans[0].Query != 0 || spans[1].Query != 1 || spans[2].Query != 2 {
		t.Errorf("Spans not in canonical query order: %+v", spans)
	}
	if qs := b.Queries(); !reflect.DeepEqual(qs, []uint64{1, 2}) {
		t.Errorf("Queries = %v, want [1 2] (zero excluded)", qs)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d", b.Len())
	}
}

func TestCtxOf(t *testing.T) {
	if got := CtxOf(42); got != (TraceContext{}) {
		t.Errorf("CtxOf(non-carrier) = %+v, want zero", got)
	}
	tc := Root(3).Child(1)
	if got := CtxOf(carrier{tc}); got != tc {
		t.Errorf("CtxOf(carrier) = %+v, want %+v", got, tc)
	}
}

type carrier struct{ tc TraceContext }

func (c carrier) TraceCtx() TraceContext { return c.tc }

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    int64
		want int
	}{
		{0, 0}, {1e6, 0}, {1e6 + 1, 1}, {5e6, 2}, {1e9, 9}, {5e9, 11}, {6e9, len(LatencyBuckets)},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Kind: KindMessage, Name: "m.a", From: "n2", Start: 0, End: 3e6, Bytes: 100})
	r.Record(Span{Kind: KindMessage, Name: "m.a", From: "n2", Start: 0, End: 50e6, Bytes: 50})
	r.Record(Span{Kind: KindMessage, Name: "m.b", From: "n1", Bytes: 7})
	r.Record(Span{Kind: KindOp, Name: "ignored", From: "n1", Bytes: 999})
	snap := r.Snapshot()
	if len(snap.Entries) != 2 {
		t.Fatalf("got %d entries, want 2 (op spans ignored): %+v", len(snap.Entries), snap.Entries)
	}
	// Sorted by (node, method).
	if snap.Entries[0].Node != "n1" || snap.Entries[1].Node != "n2" {
		t.Errorf("entries not sorted: %+v", snap.Entries)
	}
	e, ok := snap.Get("n2", "m.a")
	if !ok || e.Count != 2 || e.Bytes != 150 {
		t.Fatalf("Get(n2, m.a) = %+v, %v", e, ok)
	}
	if e.Latency[2] != 1 || e.Latency[5] != 1 {
		t.Errorf("latency histogram = %v, want 3ms in bucket 2 and 50ms in bucket 5", e.Latency)
	}
	// Snapshot isolation: mutating the snapshot must not touch the registry.
	e.Latency[0] = 99
	snap.Entries[0].Count = 99
	if again, _ := r.Snapshot().Get("n2", "m.a"); again.Latency[0] != 0 || again.Count != 2 {
		t.Error("Snapshot shares state with the registry")
	}
	r.Reset()
	if len(r.Snapshot().Entries) != 0 {
		t.Error("Reset did not clear the registry")
	}
}

func TestBuildMetricsMatchesRegistry(t *testing.T) {
	spans := []Span{
		{Kind: KindMessage, Name: "m.a", From: "n1", Bytes: 5, End: 1e6},
		{Kind: KindMessage, Name: "m.a", From: "n1", Bytes: 6, End: 2e6},
		{Kind: KindOp, Name: "op", From: "n1"},
	}
	r := NewRegistry()
	for _, s := range spans {
		r.Record(s)
	}
	if !reflect.DeepEqual(BuildMetrics(spans), r.Snapshot()) {
		t.Error("BuildMetrics differs from an attached Registry")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live recorders must be nil (disabled)")
	}
	b := NewBuffer()
	if got := Tee(nil, b); got != Recorder(b) {
		t.Error("Tee of one live recorder must pass it through")
	}
	r := NewRegistry()
	both := Tee(b, nil, r)
	both.Record(Span{Kind: KindMessage, Name: "m", From: "n"})
	if b.Len() != 1 {
		t.Error("tee did not reach the buffer")
	}
	if _, ok := r.Snapshot().Get("n", "m"); !ok {
		t.Error("tee did not reach the registry")
	}
}

// Exporter smoke tests: the golden-file coverage over a real query lives
// in internal/experiments; here the shapes are checked structurally.
func TestWriteTreeSmoke(t *testing.T) {
	root := Root(1)
	child := root.Child(1)
	spans := []Span{
		{Query: 1, ID: root.Span, Kind: KindOp, Name: "dqp.query", From: "D00", Start: 0, End: 10e6},
		{Query: 1, ID: child.Span, Parent: root.Span, Kind: KindMessage, Name: "store.match",
			From: "D00", To: "D01", Start: 0, End: 4e6, Bytes: 128},
		{Query: 0, ID: 99, Kind: KindMessage, Name: "chord.stabilize", From: "idx-00", To: "idx-01", Start: 0, End: 2e6},
	}
	var sb strings.Builder
	if err := WriteTree(&sb, spans); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	out := sb.String()
	for _, frag := range []string{"dqp.query", "store.match", "D00→D01", "128B", "untraced", "chord.stabilize"} {
		if !strings.Contains(out, frag) {
			t.Errorf("tree output missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "└─") {
		t.Errorf("tree output has no branch glyphs:\n%s", out)
	}
}

func TestWriteChromeSmoke(t *testing.T) {
	spans := []Span{
		{Query: 1, ID: 1, Kind: KindOp, Name: "dqp.query", From: "D00", Start: 0, End: 10e6},
		{Query: 1, ID: 2, Parent: 1, Kind: KindMessage, Name: "store.match",
			From: "D00", To: "D01", Start: 1e6, End: 4e6, Bytes: 128},
	}
	var sb strings.Builder
	if err := WriteChrome(&sb, spans); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	out := sb.String()
	for _, frag := range []string{`"traceEvents"`, `"ph": "X"`, `"ph": "M"`, "store.match", "process_name", "thread_name"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chrome output missing %q:\n%s", frag, out)
		}
	}
	// Byte-identical across runs over the same spans.
	var again strings.Builder
	if err := WriteChrome(&again, spans); err != nil {
		t.Fatalf("WriteChrome again: %v", err)
	}
	if again.String() != out {
		t.Error("WriteChrome output differs between identical runs")
	}
}
