package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFaultLossRateZeroAndSelfCalls(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{respSize: 1})
	n.Register("b", &echoNode{respSize: 1})
	n.SetFaults(&FaultPlan{Seed: 7}) // zero LossRate, no crashes
	for ms := 0; ms < 50; ms++ {
		if _, _, err := n.Call("a", "b", "x", Bytes(10), VTime(ms)); err != nil {
			t.Fatalf("zero-rate plan injected a fault: %v", err)
		}
	}
	n.SetFaults(&FaultPlan{Seed: 7, LossRate: 1})
	if _, _, err := n.Call("a", "a", "x", Bytes(10), 0); err != nil {
		t.Fatalf("self call hit fault injection: %v", err)
	}
	if _, _, err := n.Call("a", "b", "x", Bytes(10), 0); !errors.Is(err, ErrMessageLost) {
		t.Fatalf("rate-1 plan delivered: %v", err)
	}
}

func TestFaultCrashWindow(t *testing.T) {
	n := newTestNet()
	e := &echoNode{respSize: 1}
	n.Register("a", &echoNode{})
	n.Register("b", e)
	n.SetFaults(&FaultPlan{Crashes: []CrashWindow{
		{Node: "b", From: VTime(5 * time.Millisecond), Until: VTime(20 * time.Millisecond)},
	}})

	// Before the window: delivered.
	if _, _, err := n.Call("a", "b", "x", Bytes(1), 0); err != nil {
		t.Fatalf("pre-crash call failed: %v", err)
	}
	// Inside the window: unreachable, charged the failure timeout.
	_, done, err := n.Call("a", "b", "x", Bytes(1), VTime(6*time.Millisecond))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("in-window err = %v, want ErrUnreachable", err)
	}
	if want := VTime(16 * time.Millisecond); done != want {
		t.Errorf("in-window done = %v, want %v", done, want)
	}
	// Departs just before the crash but arrives inside it: lost mid-flight.
	if _, _, err := n.Call("a", "b", "x", Bytes(10), VTime(0)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("mid-flight crash err = %v, want ErrUnreachable", err)
	}
	// After Until the node has recovered with its state intact.
	if _, _, err := n.Call("a", "b", "x", Bytes(1), VTime(25*time.Millisecond)); err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
	// A window with Until = 0 never recovers.
	n.SetFaults(&FaultPlan{Crashes: []CrashWindow{{Node: "b", From: 0}}})
	if _, _, err := n.Call("a", "b", "x", Bytes(1), VTime(time.Hour)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("permanent crash err = %v, want ErrUnreachable", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	// Two networks under the same plan see byte-identical fates and times;
	// a different seed diverges somewhere in the sweep.
	type outcome struct {
		done VTime
		lost bool
	}
	sweep := func(seed int64) []outcome {
		n := newTestNet()
		n.Register("a", &echoNode{})
		n.Register("b", &echoNode{respSize: 64})
		n.SetFaults(&FaultPlan{Seed: seed, LossRate: 0.2})
		var out []outcome
		for ms := 0; ms < 400; ms++ {
			_, done, err := n.Call("a", "b", "m", Bytes(128), VTime(time.Duration(ms)*time.Second))
			out = append(out, outcome{done, err != nil})
		}
		return out
	}
	a, b, c := sweep(11), sweep(11), sweep(12)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 11 and 12 produced identical fault patterns")
	}
	lost := 0
	for _, o := range a {
		if o.lost {
			lost++
		}
	}
	// Per call two legs draw at ~0.2 each → P(lost) ≈ 0.36; 400 calls give
	// wide but meaningful bounds.
	if lost < 80 || lost > 240 {
		t.Errorf("lost %d/400 calls at rate 0.2, outside plausible range", lost)
	}
}

func TestRetryAccumulatesTimeoutAndSucceeds(t *testing.T) {
	n := newTestNet()
	e := &echoNode{respSize: 200}
	n.Register("a", &echoNode{})
	n.Register("b", e)
	plan := &FaultPlan{Seed: 1, LossRate: 0.3}
	n.SetFaults(plan)

	// Find a departure whose first attempt loses the request leg and whose
	// second attempt (departing at the first's timeout) delivers cleanly.
	var start VTime
	found := false
	for ms := 0; ms < 100000 && !found; ms++ {
		at := VTime(time.Duration(ms) * time.Millisecond)
		retry := at.Add(10 * time.Millisecond)
		arrive := retry.Add(legDelay(1000))
		if plan.drop("a", "b", "ping", DirRequest, at, 1000) &&
			!plan.drop("a", "b", "ping", DirRequest, retry, 1000) &&
			!plan.drop("b", "a", "ping", DirResponse, arrive, 200) {
			start, found = at, true
		}
	}
	if !found {
		t.Fatal("no lose-then-deliver departure time found")
	}

	resp, done, err := n.CallRetry("a", "b", "ping", Bytes(1000), start)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if resp.(Bytes) != 200 {
		t.Errorf("resp = %v", resp)
	}
	if e.calls != 1 {
		t.Errorf("handler calls = %d, want 1", e.calls)
	}
	// The failed attempt's FailTimeout stays on the critical path.
	rtt := VTime(legDelay(1000) + legDelay(200))
	if want := start.Add(10*time.Millisecond) + rtt; done != want {
		t.Errorf("done = %v, want %v (timeout + clean round trip)", done, want)
	}
}

func TestRetryExhaustionAndNonLossErrors(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.SetFaults(&FaultPlan{Seed: 5, LossRate: 1})

	_, done, err := n.CallRetry("a", "b", "m", Bytes(10), 0)
	if !errors.Is(err, ErrMessageLost) {
		t.Fatalf("err = %v, want wrapped ErrMessageLost", err)
	}
	if want := VTime(30 * time.Millisecond); done != want {
		t.Errorf("done = %v, want 3 accumulated timeouts = %v", done, want)
	}
	// The spent budget wraps the last attempt's loss, text unchanged.
	_, _, last := n.Call("a", "b", "m", Bytes(10), VTime(20*time.Millisecond))
	if want := last.Error() + " (after 3 attempts)"; err.Error() != want {
		t.Errorf("exhausted err = %q, want %q", err, want)
	}

	// Non-loss errors return after one attempt, with no retry burned.
	n.SetFaults(nil)
	sentinel := fmt.Errorf("application rejected")
	attempts := 0
	n.Register("c", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		attempts++
		return nil, at, sentinel
	}))
	if _, _, err := n.CallRetry("a", "c", "m", Bytes(10), 0); !errors.Is(err, sentinel) || attempts != 1 {
		t.Errorf("application error retried: attempts=%d err=%v", attempts, err)
	}
	e := &echoNode{}
	n.Register("d", e)
	n.Fail("d")
	if _, done, err := n.CallRetry("a", "d", "m", Bytes(10), 0); !errors.Is(err, ErrUnreachable) || done != VTime(10*time.Millisecond) {
		t.Errorf("unreachable retried in place: done=%v err=%v", done, err)
	}
	if _, done, err := n.ForwardRetry("a", "d", "m", Bytes(10), 0); !errors.Is(err, ErrUnreachable) || done != VTime(10*time.Millisecond) {
		t.Errorf("unreachable one-way leg retried in place: done=%v err=%v", done, err)
	}
	if _, done, err := n.ForwardRetry("a", "ghost", "m", Bytes(10), 0); !errors.Is(err, ErrUnknownNode) || done != 0 {
		t.Errorf("unknown node: done=%v err=%v", done, err)
	}
	if e.calls != 0 {
		t.Errorf("failed node's handler ran %d times", e.calls)
	}
}

// TestRetryAttemptsChain: under total loss every attempt departs at the end
// of the one before, so a retried call or one-way leg ends where three plain
// ones chained by hand end, with the third one's error wrapped.
func TestRetryAttemptsChain(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.SetFaults(&FaultPlan{Seed: 3, LossRate: 1})
	start := VTime(time.Second)

	var (
		at  = start
		err error
	)
	for i := 0; i < 3; i++ {
		_, at, err = n.Call("a", "b", "m", Bytes(10), at)
	}
	_, done, rerr := n.CallRetry("a", "b", "m", Bytes(10), start)
	if done != at || rerr == nil || rerr.Error() != err.Error()+" (after 3 attempts)" {
		t.Errorf("CallRetry = (%v, %v), want (%v, %v (after 3 attempts))", done, rerr, at, err)
	}

	// A lost one-way leg is acknowledged by nothing: its sender re-sends
	// once FailTimeout has passed since the departure, so three attempts
	// end where the three calls did.
	var forwardErr error
	for i, at := 0, start; i < 3; i, at = i+1, at.Add(n.Config().FailTimeout) {
		_, _, forwardErr = n.Forward("a", "b", "m", Bytes(10), "", at)
	}
	_, done, rerr = n.ForwardRetry("a", "b", "m", Bytes(10), start)
	if done != at || rerr == nil || rerr.Error() != forwardErr.Error()+" (after 3 attempts)" {
		t.Errorf("ForwardRetry = (%v, %v), want (%v, %v (after 3 attempts))", done, rerr, at, forwardErr)
	}
	if !errors.Is(rerr, ErrMessageLost) {
		t.Errorf("ForwardRetry err = %v, want wrapped ErrMessageLost", rerr)
	}
}

// TestRetryRerunsHandlerAfterLostReply: a lost reply means the handler
// already ran; the re-send runs it again — why every retried method must
// be idempotent.
func TestRetryRerunsHandlerAfterLostReply(t *testing.T) {
	plan := &FaultPlan{Seed: 9, LossRate: 0.3}
	deploy := func() (*Network, *echoNode) {
		n := newTestNet()
		e := &echoNode{respSize: 50}
		n.Register("a", &echoNode{})
		n.Register("b", e)
		n.SetFaults(plan)
		return n, e
	}
	// Find a departure whose first attempt loses only the reply and whose
	// second attempt, departing at the first's end, is delivered.
	probe, _ := deploy()
	var start, want VTime
	for ms := 0; ms < 100000 && want == 0; ms++ {
		at := VTime(time.Duration(ms) * time.Millisecond)
		_, end, err := probe.Call("a", "b", "m", Bytes(100), at)
		if !errors.Is(err, ErrReplyLost) {
			continue
		}
		if _, done, err := probe.Call("a", "b", "m", Bytes(100), end); err == nil {
			start, want = at, done
		}
	}
	if want == 0 {
		t.Fatal("no reply-lost-then-delivered departure found")
	}

	n, e := deploy()
	resp, done, err := n.CallRetry("a", "b", "m", Bytes(100), start)
	if err != nil || resp.(Bytes) != 50 || done != want {
		t.Fatalf("CallRetry = (%v, %v, %v), want (50, %v, nil)", resp, done, err, want)
	}
	if e.calls != 2 {
		t.Errorf("handler ran %d times, want 2 (the lost reply's run and the re-send's)", e.calls)
	}
}
