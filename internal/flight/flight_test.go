package flight

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Emit(Event{Node: "a", Kind: KindDeliver, VT: 1})
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates: %v allocs/op", allocs)
	}
	if r.Events() != nil || r.Nodes() != nil || r.Count(KindDeliver) != 0 || r.Total() != 0 {
		t.Fatalf("nil recorder returned non-empty state")
	}
	r.Reset() // must not panic
	if got := r.CheckMonotonic(); got != nil {
		t.Fatalf("nil recorder monotonic check = %v", got)
	}
	if got := r.CheckConservation(5); got != nil {
		t.Fatalf("nil recorder conservation check = %v", got)
	}
}

// mixEvents is a fixed multiset of events large enough to overflow a
// small ring.
func mixEvents() []Event {
	var evs []Event
	for i := 0; i < 40; i++ {
		evs = append(evs, Event{
			Node:   "n1",
			Kind:   KindDeliver,
			VT:     int64(i * 10),
			End:    int64(i*10 + 5),
			Peer:   "n2",
			Method: "chord.find_successor",
			Query:  uint64(i % 3),
		})
	}
	evs = append(evs,
		Event{Node: "n1", Kind: KindLost, VT: 95, End: 95, Peer: "n3", Method: "overlay.lookup"},
		Event{Node: "n2", Kind: KindStabilize, VT: 50, End: 60},
		Event{Node: "n2", Kind: KindEpochBump, VT: 70, End: 70, Note: "epoch 2"},
	)
	return evs
}

func TestRingEvictionIsInsertionOrderIndependent(t *testing.T) {
	base := mixEvents()
	build := func(seed int64) *Recorder {
		evs := append([]Event(nil), base...)
		rand.New(rand.NewSource(seed)).Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		r := NewRecorder(16)
		for _, e := range evs {
			r.Emit(e)
		}
		return r
	}
	want := build(1)
	for seed := int64(2); seed <= 6; seed++ {
		got := build(seed)
		if !reflect.DeepEqual(got.Events(), want.Events()) {
			t.Fatalf("retained events differ between insertion orders (seed %d)", seed)
		}
		if !reflect.DeepEqual(got.Counts(), want.Counts()) {
			t.Fatalf("counters differ between insertion orders (seed %d)", seed)
		}
	}
	if n := len(want.NodeEvents("n1")); n != 16 {
		t.Fatalf("ring size = %d, want capacity 16", n)
	}
	// The ring keeps the canonically latest events: of n1's 41 events
	// (deliveries at vt 0..390 plus a loss at 95), the retained 16 are
	// the deliveries at vt 240..390.
	n1 := want.NodeEvents("n1")
	if n1[0].VT != 240 || n1[len(n1)-1].VT != 390 {
		t.Fatalf("retained window [%d,%d], want [240,390]", n1[0].VT, n1[len(n1)-1].VT)
	}
}

func TestCountersSurviveEviction(t *testing.T) {
	r := NewRecorder(4)
	for _, e := range mixEvents() {
		r.Emit(e)
	}
	if got := r.Count(KindDeliver); got != 40 {
		t.Fatalf("deliver count = %d, want 40 despite eviction", got)
	}
	if got := r.Count(KindLost); got != 1 {
		t.Fatalf("lost count = %d, want 1", got)
	}
	if got := r.Total(); got != 43 {
		t.Fatalf("total = %d, want 43", got)
	}
	// Conservation holds on counters even though most events were evicted.
	if vs := r.CheckConservation(41); len(vs) != 0 {
		t.Fatalf("conservation violated on intact counters: %v", vs)
	}
	if vs := r.CheckConservation(40); len(vs) != 1 || vs[0].Monitor != MonitorConservation {
		t.Fatalf("conservation mismatch not reported: %v", vs)
	}
}

func TestEmitIsAllocationFreeAtCapacity(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 16; i++ {
		r.Emit(Event{Node: "a", Kind: KindDeliver, VT: int64(i)})
	}
	vt := int64(16)
	allocs := testing.AllocsPerRun(200, func() {
		r.Emit(Event{Node: "a", Kind: KindDeliver, VT: vt})
		vt++
	})
	if allocs != 0 {
		t.Fatalf("Emit at capacity allocates: %v allocs/op", allocs)
	}
}

func TestCheckMonotonic(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(Event{Node: "a", Kind: KindDeliver, VT: 10, End: 20})
	r.Emit(Event{Node: "a", Kind: KindDeliver, VT: 30, End: 40})
	if vs := r.CheckMonotonic(); len(vs) != 0 {
		t.Fatalf("clean log reported violations: %v", vs)
	}
	r.Emit(Event{Node: "a", Kind: KindDeliver, VT: 50, End: 45}) // inverted interval
	vs := r.CheckMonotonic()
	if len(vs) != 1 || vs[0].Monitor != MonitorMonotonic {
		t.Fatalf("inverted interval not caught: %v", vs)
	}
	if len(vs[0].Nodes) != 1 || vs[0].Nodes[0] != "a" {
		t.Fatalf("violation does not name offending node: %v", vs[0])
	}
}

// Emission order is not an invariant: overlapping clients emit one node's
// events out of VT order, and the ring reads them back in canonical
// order. Only an inverted interval is a violation.
func TestCheckMonotonicIgnoresEmissionOrder(t *testing.T) {
	r := NewRecorder(8)
	for _, vt := range []int64{30, 10, 50, 20} {
		r.Emit(Event{Node: "a", Kind: KindDeliver, VT: vt, End: vt + 5})
	}
	if vs := r.CheckMonotonic(); len(vs) != 0 {
		t.Fatalf("out-of-VT-order emits reported violations: %v", vs)
	}
	r.Emit(Event{Node: "a", Kind: KindDeliver, VT: 15, End: 12})
	if vs := r.CheckMonotonic(); len(vs) != 1 || vs[0].VT != 15 {
		t.Fatalf("inverted interval among out-of-order emits not caught: %v", vs)
	}
}

func TestIncidentReportDeterministic(t *testing.T) {
	build := func() string {
		r := NewRecorder(8)
		for _, e := range mixEvents() {
			r.Emit(e)
		}
		vs := []Violation{{Monitor: MonitorRing, Nodes: []string{"n2", "n1"}, VT: 60, Detail: "successor disagreement"}}
		inc := BuildIncident(r, "test incident", vs, nil, 4, 0x42, nil)
		var buf bytes.Buffer
		if err := inc.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("incident report not deterministic:\n%s\n---\n%s", a, b)
	}
	if !bytes.Contains([]byte(a), []byte("ring-consistency")) || !bytes.Contains([]byte(a), []byte("n1")) {
		t.Fatalf("report missing monitor or node name:\n%s", a)
	}
}
