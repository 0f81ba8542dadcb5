package simnet

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// echoNode answers every call with a fixed-size payload after zero local
// compute time.
type echoNode struct {
	respSize int
	calls    int
	mu       sync.Mutex
}

func (e *echoNode) HandleCall(at VTime, method string, req Payload) (Payload, VTime, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	return Bytes(e.respSize), at, nil
}

func newTestNet() *Network {
	return New(Config{BaseLatency: time.Millisecond, Bandwidth: 1000, FailTimeout: 10 * time.Millisecond})
}

func TestCallBasics(t *testing.T) {
	n := newTestNet()
	e := &echoNode{respSize: 500}
	n.Register("b", e)
	n.Register("a", &echoNode{})

	resp, done, err := n.Call("a", "b", "ping", Bytes(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.(Bytes) != 500 {
		t.Errorf("resp = %v", resp)
	}
	// request: 1ms + 1000/1000 B/s = 1ms + 1s; response: 1ms + 0.5s
	want := VTime(2*time.Millisecond + 1500*time.Millisecond)
	if done != want {
		t.Errorf("done = %v, want %v", done, want)
	}
	if e.calls != 1 {
		t.Errorf("handler calls = %d", e.calls)
	}
	m := n.Metrics()
	if m.Messages != 2 {
		t.Errorf("messages = %d, want 2", m.Messages)
	}
	if m.Bytes != 1500 {
		t.Errorf("bytes = %d, want 1500", m.Bytes)
	}
}

func TestSelfCallIsFree(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{respSize: 100})
	_, done, err := n.Call("a", "a", "local", Bytes(1<<20), 42)
	if err != nil {
		t.Fatal(err)
	}
	if done != 42 {
		t.Errorf("self call advanced time to %v", done)
	}
	if m := n.Metrics(); m.Messages != 0 || m.Bytes != 0 {
		t.Errorf("self call accounted traffic: %+v", m)
	}
}

func TestUnknownNode(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	_, _, err := n.Call("a", "ghost", "x", Bytes(1), 0)
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestFailedNodeTimesOut(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.Fail("b")
	if n.Alive("b") {
		t.Error("failed node reported alive")
	}
	_, done, err := n.Call("a", "b", "x", Bytes(10), 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if done != VTime(10*time.Millisecond) {
		t.Errorf("timeout time = %v", done)
	}
	// request still accounted (it was sent)
	if m := n.Metrics(); m.Messages != 1 {
		t.Errorf("messages = %d, want 1", m.Messages)
	}
	n.Recover("b")
	if _, _, err := n.Call("a", "b", "x", Bytes(10), 0); err != nil {
		t.Errorf("call after recover: %v", err)
	}
}

func TestDeregister(t *testing.T) {
	n := newTestNet()
	n.Register("b", &echoNode{})
	n.Deregister("b")
	if _, _, err := n.Call("a", "b", "x", Bytes(1), 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	if len(n.Nodes()) != 0 {
		t.Error("node list not empty after deregister")
	}
}

func TestNestedCallsAccumulateTime(t *testing.T) {
	n := newTestNet()
	n.Register("c", &echoNode{respSize: 0})
	// b forwards to c, threading virtual time
	n.Register("b", HandlerFunc(func(at VTime, method string, req Payload) (Payload, VTime, error) {
		_, done, err := n.Call("b", "c", "fwd", Bytes(0), at)
		return Bytes(0), done, err
	}))
	n.Register("a", &echoNode{})
	_, done, err := n.Call("a", "b", "chain", Bytes(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	// four hops of base latency: a→b, b→c, c→b, b→a
	if done != VTime(4*time.Millisecond) {
		t.Errorf("chained done = %v, want 4ms", done)
	}
	if m := n.Metrics(); m.Messages != 4 {
		t.Errorf("messages = %d, want 4", m.Messages)
	}
}

// Parallel's contract: results by branch index, and a completion time
// that is the max over the branches, a failed branch's timeout included.
func TestParallelFanOutTakesMax(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1000, FailTimeout: 5 * time.Second})
	n.Register("a", &echoNode{})
	n.Register("fast", &echoNode{respSize: 0})
	n.Register("slow", &echoNode{respSize: 2000}) // 2s response transfer
	n.Register("dead", &echoNode{})
	n.Fail("dead")

	fanOut := func(dests ...Addr) ([]Result[Payload], VTime) {
		return Parallel(len(dests), 0, func(i int) (Payload, VTime, error) {
			return n.Call("a", dests[i], "x", Bytes(0), 0)
		})
	}
	res, done := fanOut("fast", "slow")
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("branch errors: %v, %v", res[0].Err, res[1].Err)
	}
	if res[0].Value != Bytes(0) || res[1].Value != Bytes(2000) {
		t.Errorf("values = %v, %v; want the fast and the slow response, by branch", res[0].Value, res[1].Value)
	}
	if want := VTime(2*time.Millisecond + 2*time.Second); res[1].Done != want || done != want {
		t.Errorf("slow branch done %v, fan-out done %v, want both %v", res[1].Done, done, want)
	}
	if res[0].Done >= res[1].Done {
		t.Errorf("fast branch done %v, not before slow %v", res[0].Done, res[1].Done)
	}

	res, done = fanOut("dead", "fast", "slow")
	if !errors.Is(res[0].Err, ErrUnreachable) || res[1].Err != nil || res[2].Err != nil {
		t.Fatalf("branch errors: %v, %v, %v; want only branch 0 unreachable", res[0].Err, res[1].Err, res[2].Err)
	}
	if want := VTime(5 * time.Second); res[0].Done != want || done != want {
		t.Errorf("failed branch done %v, fan-out done %v, want both FailTimeout %v", res[0].Done, done, want)
	}

	if res, done := fanOut(); res == nil || len(res) != 0 || done != 0 {
		t.Errorf("empty fan-out = %v, %v; want an empty slice and VTime 0", res, done)
	}
}

// Branches run on the caller's goroutine in index order, so a branch may
// write captured state without synchronisation.
func TestParallelRunsBranchesInIndexOrder(t *testing.T) {
	const n = 64
	var order []int
	Parallel(n, 0, func(i int) (struct{}, VTime, error) {
		order = append(order, i)
		return struct{}{}, 0, nil
	})
	if len(order) != n {
		t.Fatalf("%d branches ran, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("branch %d ran at position %d", got, i)
		}
	}
}

func TestSendOneWay(t *testing.T) {
	n := newTestNet()
	e := &echoNode{}
	n.Register("b", e)
	_, arrive, err := n.Forward("a", "b", "notify", Bytes(1000), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != VTime(time.Millisecond+time.Second) {
		t.Errorf("arrive = %v", arrive)
	}
	if m := n.Metrics(); m.Messages != 1 || m.Bytes != 1000 {
		t.Errorf("one-way accounting wrong: %+v", m)
	}
}

func TestMetricsPerMethodAndReset(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 10})
	n.Call("a", "b", "alpha", Bytes(5), 0)
	n.Call("a", "b", "beta", Bytes(7), 0)
	m := n.Metrics()
	if m.PerMethod["alpha"].Messages != 2 || m.PerMethod["alpha"].Bytes != 15 {
		t.Errorf("alpha stats = %+v", m.PerMethod["alpha"])
	}
	if len(m.PerMethod) != 2 || m.PerMethod["beta"].Messages != 2 {
		t.Errorf("methods = %+v", m.PerMethod)
	}
	n.ResetMetrics()
	if m := n.Metrics(); m.Messages != 0 || len(m.PerMethod) != 0 {
		t.Errorf("reset failed: %+v", m)
	}
}

func TestSnapshotSub(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 1})
	n.Call("a", "b", "m", Bytes(1), 0)
	before := n.Metrics()
	n.Call("a", "b", "m", Bytes(3), 0)
	delta := n.Metrics().Sub(before)
	if delta.Messages != 2 || delta.Bytes != 4 {
		t.Errorf("delta = %+v", delta)
	}
	if delta.PerMethod["m"].Bytes != 4 {
		t.Errorf("per-method delta = %+v", delta.PerMethod["m"])
	}
}

func TestSnapshotSubPerDirection(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 1})
	n.Call("a", "b", "m", Bytes(2), 0)
	n.Forward("a", "b", "s", Bytes(4), "", 0)
	before := n.Metrics()
	n.Call("a", "b", "m", Bytes(3), 0)
	delta := n.Metrics().Sub(before)
	if got := delta.PerDirection[DirRequest]["m"]; got.Messages != 1 || got.Bytes != 3 {
		t.Errorf("req delta = %+v", got)
	}
	if got := delta.PerDirection[DirResponse]["m"]; got.Messages != 1 || got.Bytes != 1 {
		t.Errorf("resp delta = %+v", got)
	}
	// Unchanged cells are omitted, not emitted as zeros.
	if _, ok := delta.PerDirection[DirOneWay]; ok {
		t.Error("delta contains a direction with no traffic")
	}
}

func TestResetMetricsClearsDirections(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.Call("a", "b", "m", Bytes(1), 0)
	n.ResetMetrics()
	m := n.Metrics()
	if m.Messages != 0 || len(m.PerMethod) != 0 || len(m.PerDirection) != 0 {
		t.Errorf("reset left counters behind: %+v", m)
	}
}

func TestErrorResponseStillAccounted(t *testing.T) {
	n := newTestNet()
	n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		return nil, at, errors.New("boom")
	}))
	_, done, err := n.Call("a2", "b", "x", Bytes(100), 0)
	if err == nil {
		t.Fatal("expected handler error")
	}
	if done <= 0 {
		t.Error("error path should still cost time")
	}
	if m := n.Metrics(); m.Messages != 2 {
		t.Errorf("messages = %d, want 2 (request + error)", m.Messages)
	}
}

func TestConcurrentCallsSafe(t *testing.T) {
	n := newTestNet()
	n.Register("b", &echoNode{respSize: 1})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n.Call("a", "b", "m", Bytes(1), 0)
			}
		}()
	}
	wg.Wait()
	if m := n.Metrics(); m.Messages != 3200 {
		t.Errorf("messages = %d, want 3200", m.Messages)
	}
}

func TestTransferDelayMonotoneProperty(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20})
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	f := func(s1, s2 uint16) bool {
		small, big := int(s1), int(s2)
		if small > big {
			small, big = big, small
		}
		_, d1, _ := n.Call("a", "b", "m", Bytes(small), 0)
		_, d2, _ := n.Call("a", "b", "m", Bytes(big), 0)
		return d1 <= d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	n := New(Config{})
	cfg := n.Config()
	if cfg.BaseLatency <= 0 || cfg.Bandwidth <= 0 || cfg.FailTimeout <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestLinkFactors(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20})
	n.Register("fast", &echoNode{})
	n.Register("slow", &echoNode{})
	n.Register("src", &echoNode{})
	if f := n.LinkFactor("fast"); f != 1.0 {
		t.Errorf("default factor = %v, want 1.0", f)
	}
	n.SetLinkFactor("slow", 5)
	if f := n.LinkFactor("slow"); f != 5 {
		t.Errorf("factor = %v, want 5", f)
	}
	if pf := n.PathFactor("fast", "slow"); pf != 5 {
		t.Errorf("path factor = %v, want worse endpoint 5", pf)
	}
	if pf := n.PathFactor("fast", "src"); pf != 1 {
		t.Errorf("healthy path factor = %v, want 1", pf)
	}
	// transfers to the slow node take 5x the base latency
	_, dFast, err := n.Call("src", "fast", "m", Bytes(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, dSlow, err := n.Call("src", "slow", "m", Bytes(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dSlow != 5*dFast {
		t.Errorf("slow call %v, fast call %v — want exactly 5x", dSlow, dFast)
	}
	// clamping
	n.SetLinkFactor("slow", -3)
	if f := n.LinkFactor("slow"); f != 0.01 {
		t.Errorf("clamped factor = %v, want 0.01", f)
	}
}
