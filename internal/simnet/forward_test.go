package simnet

import (
	"errors"
	"testing"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/trace"
)

// forwardNet registers a (the sender), b (an echo node answering 200-byte
// payloads) and c (the origin a route answers) on newTestNet's cost model,
// with a flight recorder to count legs.
func forwardNet() (*Network, *echoNode, *flight.Recorder) {
	n := newTestNet()
	b := &echoNode{respSize: 200}
	n.Register("a", &echoNode{})
	n.Register("b", b)
	n.Register("c", &echoNode{})
	flt := flight.NewRecorder(0)
	n.SetFlightRecorder(flt)
	return n, b, flt
}

// TestForwardLegs: a Forward is one one-way leg whose receiver's result
// comes back to the caller as is; ending a route (replyTo set) it adds one
// response leg to the origin, whose arrival is the returned time and whose
// span hangs under the request's. No reply follows when the receiver is
// the origin, or when its handler fails; a hop to itself is free.
func TestForwardLegs(t *testing.T) {
	req := tracedPayload{Size: 100, TC: trace.Root(legQuery)}
	cases := []struct {
		name            string
		from, replyTo   Addr
		wantLegs        int64
		wantDone        VTime
		wantReplyToSpan bool
	}{
		{"hop", "a", "", 1, VTime(legDelay(100)), false},
		{"route end", "a", "c", 2, VTime(legDelay(100) + legDelay(200)), true},
		{"route end at the origin", "a", "b", 1, VTime(legDelay(100)), false},
		{"self hop", "b", "", 0, 0, false},
		{"self route end", "b", "c", 1, VTime(legDelay(200)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, b, flt := forwardNet()
			rec := trace.NewBuffer()
			n.SetRecorder(rec)
			resp, done, err := n.Forward(tc.from, "b", legMethod, req, tc.replyTo, 0)
			if err != nil || resp != Bytes(200) || b.calls != 1 {
				t.Fatalf("resp %v, err %v, %d handler calls", resp, err, b.calls)
			}
			if done != tc.wantDone || flt.Total() != tc.wantLegs || n.Metrics().Messages != tc.wantLegs {
				t.Errorf("done %v after %d legs (%d accounted), want %v after %d", done, flt.Total(), n.Metrics().Messages, tc.wantDone, tc.wantLegs)
			}
			var reply []trace.Span
			for _, sp := range rec.Spans() {
				if sp.IsResponse() {
					reply = append(reply, sp)
				}
			}
			if got := len(reply) == 1 && reply[0].To == string(tc.replyTo) && reply[0].Parent == req.TC.Span; got != tc.wantReplyToSpan {
				t.Errorf("response spans %+v, want one to %q under the request: %v", reply, tc.replyTo, tc.wantReplyToSpan)
			}
			if tc.from != "b" {
				if got := n.Metrics().PerDirection[DirOneWay][legMethod].Messages; got != 1 {
					t.Errorf("%d one-way legs, want the forward alone", got)
				}
			}
		})
	}
}

// TestForwardLossStopsTheRoute: no leg of a route is acknowledged, so a
// lost forward returns ErrMessageLost at its departure with the handler
// never run, and a lost reply ErrReplyLost at the reply's departure with
// the handler run. A receiver found down costs FailTimeout, as in Call.
func TestForwardLossStopsTheRoute(t *testing.T) {
	plan := &FaultPlan{Seed: 3, LossRate: 0.3}
	start := func(forwardLost, replyLost bool) VTime {
		for ms := 0; ms < 100000; ms++ {
			at := VTime(time.Duration(ms) * time.Millisecond)
			if plan.drop("a", "b", legMethod, DirOneWay, at, 100) == forwardLost &&
				plan.drop("b", "c", legMethod, DirResponse, at.Add(legDelay(100)), 200) == replyLost {
				return at
			}
		}
		t.Fatal("no departure meets the wanted fates")
		return 0
	}
	t.Run("forward lost", func(t *testing.T) {
		n, b, _ := forwardNet()
		n.SetFaults(plan)
		at := start(true, false)
		_, done, err := n.Forward("a", "b", legMethod, Bytes(100), "c", at)
		if !errors.Is(err, ErrMessageLost) || done != at || b.calls != 0 {
			t.Errorf("err %v at %v after %d handler calls; want a lost request at departure %v, no handler run", err, done, b.calls, at)
		}
	})
	t.Run("reply lost", func(t *testing.T) {
		n, b, _ := forwardNet()
		n.SetFaults(plan)
		at := start(false, true)
		_, done, err := n.Forward("a", "b", legMethod, Bytes(100), "c", at)
		if want := at.Add(legDelay(100)); !errors.Is(err, ErrReplyLost) || done != want || b.calls != 1 {
			t.Errorf("err %v at %v after %d handler calls; want a lost reply at its departure %v, the handler run", err, done, b.calls, want)
		}
	})
	t.Run("receiver down", func(t *testing.T) {
		n, b, _ := forwardNet()
		n.Fail("b")
		_, done, err := n.Forward("a", "b", legMethod, Bytes(100), "c", 0)
		if !errors.Is(err, ErrUnreachable) || done != VTime(10*time.Millisecond) || b.calls != 0 {
			t.Errorf("err %v at %v, want unreachable after FailTimeout", err, done)
		}
	})
	t.Run("handler error", func(t *testing.T) {
		n := newTestNet()
		n.Register("a", &echoNode{})
		n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
			return nil, at, errLegHandler
		}))
		_, done, err := n.Forward("a", "b", legMethod, Bytes(100), "c", 0)
		if !errors.Is(err, errLegHandler) || done != VTime(legDelay(100)) || n.Metrics().Messages != 1 {
			t.Errorf("err %v at %v after %d legs, want the handler's error at arrival, no reply leg", err, done, n.Metrics().Messages)
		}
	})
}
