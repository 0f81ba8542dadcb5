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

	resp, done, err := Retry(DefaultAttempts, start, func(at VTime) (Payload, VTime, error) {
		return n.Call("a", "b", "ping", Bytes(1000), at)
	})
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

	_, done, err := Retry(3, 0, func(at VTime) (Payload, VTime, error) {
		return n.Call("a", "b", "m", Bytes(10), at)
	})
	if !errors.Is(err, ErrMessageLost) {
		t.Fatalf("err = %v, want wrapped ErrMessageLost", err)
	}
	if want := VTime(30 * time.Millisecond); done != want {
		t.Errorf("done = %v, want 3 accumulated timeouts = %v", done, want)
	}

	// Non-loss errors return immediately, with no retry burned.
	attempts := 0
	sentinel := fmt.Errorf("application rejected")
	_, _, err = Retry(3, 0, func(at VTime) (Payload, VTime, error) {
		attempts++
		return nil, at, sentinel
	})
	if !errors.Is(err, sentinel) || attempts != 1 {
		t.Errorf("non-loss error retried: attempts=%d err=%v", attempts, err)
	}
	n.SetFaults(nil)
	n.Fail("b")
	attempts = 0
	_, _, err = Retry(3, 0, func(at VTime) (Payload, VTime, error) {
		attempts++
		return n.Call("a", "b", "m", Bytes(10), at)
	})
	if !errors.Is(err, ErrUnreachable) || attempts != 1 {
		t.Errorf("unreachable retried in place: attempts=%d err=%v", attempts, err)
	}
}
