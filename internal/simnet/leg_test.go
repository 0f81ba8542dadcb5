package simnet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/trace"
)

// tracedPayload carries a TraceContext like the real RPC messages do.
type tracedPayload struct {
	Size int
	TC   trace.TraceContext
}

func (p tracedPayload) SizeBytes() int               { return p.Size + p.TC.SizeBytes() }
func (p tracedPayload) TraceCtx() trace.TraceContext { return p.TC }

// Leg-table fixture: node a talks to node b with a 5-byte request and a
// 10-byte response over newTestNet's cost model (1ms + 1ms per byte,
// 10ms FailTimeout).
const (
	legMethod   = "m"
	legReqSize  = 5
	legRespSize = 10
	legQuery    = 1
)

var errLegHandler = errors.New("boom")

// legDelay mirrors transferDelay for newTestNet's config on nominal links.
func legDelay(size int) time.Duration {
	return time.Millisecond + time.Duration(float64(size)/1000*float64(time.Second))
}

// wantLeg is one expected accounted leg; resp marks a response leg, whose
// span hangs under the request's as Child(ResponseSeq).
type wantLeg struct {
	from, to             Addr
	dir                  string
	size                 int
	start, end           VTime
	kind                 string
	spanNote, flightNote string
	resp                 bool
}

type legScenario int

const (
	legDeliver legScenario = iota
	legRequestLost
	legReplyLost
	legFailedNode
	legInFlightCrash
	legHandlerError
	legSelfCall
	legUnknownNode
)

var legScenarioNames = [...]string{
	legDeliver: "deliver", legRequestLost: "request lost", legReplyLost: "reply lost",
	legFailedNode: "failed node", legInFlightCrash: "in-flight crash",
	legHandlerError: "handler error", legSelfCall: "self-call", legUnknownNode: "unknown node",
}

type legOp struct {
	name string
	dir  string
	run  func(n *Network, to Addr, p Payload, at VTime) (VTime, error)
}

var legOps = []legOp{
	{"Call", DirRequest, func(n *Network, to Addr, p Payload, at VTime) (VTime, error) {
		_, done, err := n.Call("a", to, legMethod, p, at)
		return done, err
	}},
	{"Forward", DirOneWay, func(n *Network, to Addr, p Payload, at VTime) (VTime, error) {
		_, done, err := n.Forward("a", to, legMethod, p, "", at)
		return done, err
	}},
}

// legFate scans departure times until the forward leg and (for Call) the
// response leg of one a→b operation meet the wanted fates under the plan,
// so a scenario is pinned without hard-coding hash values.
func legFate(t *testing.T, plan *FaultPlan, dir string, dropFwd, dropResp bool) VTime {
	t.Helper()
	for ms := 0; ms < 100000; ms++ {
		at := VTime(time.Duration(ms) * time.Millisecond)
		if plan.drop("a", "b", legMethod, dir, at, legReqSize) != dropFwd {
			continue
		}
		arrive := at.Add(legDelay(legReqSize))
		if dir != DirRequest || plan.drop("b", "a", legMethod, DirResponse, arrive, legRespSize) == dropResp {
			return at
		}
	}
	t.Fatalf("no departure time found with dropFwd=%v dropResp=%v", dropFwd, dropResp)
	return 0
}

// legCase is one cell of the table: how to set the network up, when to
// depart, and what must come out.
type legCase struct {
	to       Addr
	at       VTime
	plan     *FaultPlan
	failB    bool
	legs     []wantLeg
	done     VTime
	err      error
	handlerN int
}

// buildLegCase derives the expectations of one (operation, scenario) cell;
// ok is false for cells that do not exist (only a Call has a reply).
func buildLegCase(t *testing.T, op legOp, sc legScenario) (c legCase, ok bool) {
	isCall := op.dir == DirRequest
	c = legCase{to: "b", at: VTime(3 * time.Millisecond)}
	switch sc {
	case legReplyLost:
		if !isCall {
			return c, false
		}
		c.plan = &FaultPlan{Seed: 1, LossRate: 0.3}
		c.at = legFate(t, c.plan, op.dir, false, true)
	case legRequestLost:
		c.plan = &FaultPlan{Seed: 1, LossRate: 0.3}
		c.at = legFate(t, c.plan, op.dir, true, false)
	case legFailedNode:
		c.failB = true
	case legInFlightCrash:
		c.plan = &FaultPlan{Crashes: []CrashWindow{{Node: "b", From: c.at + 1}}}
	case legSelfCall:
		c.to, c.done = "a", c.at
		return c, true
	case legUnknownNode:
		c.to, c.done, c.err = "ghost", c.at, ErrUnknownNode
		return c, true
	}

	timeout := c.at.Add(10 * time.Millisecond)
	arrive := c.at.Add(legDelay(legReqSize))
	fwd := wantLeg{from: "a", to: "b", dir: op.dir, size: legReqSize, start: c.at, end: arrive, kind: flight.KindDeliver}
	switch sc {
	case legRequestLost:
		fwd.kind, fwd.spanNote, fwd.end, c.err = flight.KindLost, "lost", timeout, ErrMessageLost
		if op.dir == DirOneWay {
			fwd.end = arrive // no acknowledgement awaited: only the wire cost
		}
	case legFailedNode:
		fwd.kind, fwd.spanNote, fwd.end, c.err = flight.KindUnreachable, "unreachable", timeout, ErrUnreachable
	case legInFlightCrash:
		fwd.kind, fwd.spanNote, fwd.flightNote, fwd.end, c.err =
			flight.KindUnreachable, "unreachable", "in-flight crash", timeout, ErrUnreachable
	}
	c.legs, c.done = []wantLeg{fwd}, fwd.end
	if sc == legRequestLost && op.name == "Forward" {
		c.done = c.at // a route's lost leg stops it where it left
	}
	if fwd.kind != flight.KindDeliver {
		return c, true
	}
	c.handlerN = 1
	if sc == legHandlerError {
		c.err = errLegHandler
	}
	if !isCall {
		return c, true
	}
	reply := wantLeg{from: "b", to: "a", dir: DirResponse, size: legRespSize, start: arrive,
		end: arrive.Add(legDelay(legRespSize)), kind: flight.KindDeliver, resp: true}
	switch sc {
	case legReplyLost:
		reply.kind, reply.spanNote, reply.flightNote, reply.end, c.err =
			flight.KindLost, "lost", "reply", arrive.Add(10*time.Millisecond), ErrReplyLost
	case legHandlerError:
		// Accounted at size 0, delayed as a 16-byte control message.
		reply.size, reply.spanNote, reply.flightNote, reply.end = 0, "error", "error", arrive.Add(legDelay(16))
	}
	c.legs, c.done = append(c.legs, reply), reply.end
	return c, true
}

// legRun is what one execution of a cell produced.
type legRun struct {
	done     VTime
	err      error
	metrics  Snapshot
	traffic  QueryTraffic
	handlerN int
	spans    []trace.Span
	events   []flight.Event
}

func runLegCase(op legOp, sc legScenario, c legCase, armed bool) legRun {
	n := newTestNet()
	var r legRun
	n.Register("a", &echoNode{})
	n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		r.handlerN++
		if sc == legHandlerError {
			return Bytes(legRespSize), at, errLegHandler
		}
		return Bytes(legRespSize), at, nil
	}))
	if c.failB {
		n.Fail("b")
	}
	n.SetFaults(c.plan)
	buf, flt := trace.NewBuffer(), flight.NewRecorder(0)
	if armed {
		n.SetRecorder(buf)
		n.SetFlightRecorder(flt)
	}
	n.TrackQuery(legQuery)
	tc := trace.Root(legQuery).Child(1)
	r.done, r.err = op.run(n, c.to, tracedPayload{Size: legReqSize, TC: tc}, c.at)
	r.metrics, r.traffic = n.Metrics(), n.UntrackQuery(legQuery)
	r.spans, r.events = buf.Spans(), flt.Events()
	return r
}

// TestLegTable is the one-leg-one-event contract: over every operation and
// every outcome, each accounted leg yields exactly one counter increment,
// one charge to its query's accumulator, one message span and one flight
// event, all four agreeing on method, endpoints, size and interval — and
// self-calls and unknown destinations yield none. Arming the observers
// changes neither the result nor the counters.
func TestLegTable(t *testing.T) {
	tc := trace.Root(legQuery).Child(1)
	for _, op := range legOps {
		for i, scName := range legScenarioNames {
			sc := legScenario(i)
			c, ok := buildLegCase(t, op, sc)
			if !ok {
				continue
			}
			t.Run(op.name+"/"+scName, func(t *testing.T) {
				got := runLegCase(op, sc, c, true)
				if got.done != c.done {
					t.Errorf("done = %v, want %v", got.done, c.done)
				}
				if !errors.Is(got.err, c.err) {
					t.Errorf("err = %v, want %v", got.err, c.err)
				}
				if got.handlerN != c.handlerN {
					t.Errorf("handler ran %d times, want %d", got.handlerN, c.handlerN)
				}
				if errors.Is(got.err, ErrReplyLost) != (sc == legReplyLost) || IsLost(got.err) != (sc == legReplyLost || sc == legRequestLost) {
					t.Errorf("ErrReplyLost/IsLost misclassify %v", got.err)
				}

				// Sink 1 and 2: the counters and the per-query accumulator.
				var wantMsgs, wantBytes int64
				wantDir := map[string]map[string]MethodStats{}
				var wantSpans []trace.Span
				var wantEvents []flight.Event
				for _, l := range c.legs {
					wantMsgs++
					wantBytes += int64(l.size)
					wantDir[l.dir] = map[string]MethodStats{legMethod: {Messages: 1, Bytes: int64(l.size)}}
					ltc := tc
					if l.resp {
						ltc = tc.Child(trace.ResponseSeq)
					}
					wantSpans = append(wantSpans, trace.Span{Query: legQuery, ID: ltc.Span, Parent: ltc.Parent,
						Kind: trace.KindMessage, Name: legMethod, From: string(l.from), To: string(l.to),
						Start: int64(l.start), End: int64(l.end), Bytes: l.size, Note: l.spanNote})
					wantEvents = append(wantEvents, flight.Event{Node: string(l.from), Kind: l.kind,
						VT: int64(l.start), End: int64(l.end), Peer: string(l.to), Method: legMethod,
						Query: legQuery, Note: l.flightNote})
				}
				wantMethod := map[string]MethodStats{}
				if wantMsgs > 0 {
					wantMethod[legMethod] = MethodStats{Messages: wantMsgs, Bytes: wantBytes}
				}
				wantSnap := Snapshot{Messages: wantMsgs, Bytes: wantBytes, PerMethod: wantMethod, PerDirection: wantDir}
				if !reflect.DeepEqual(got.metrics, wantSnap) {
					t.Errorf("counters = %+v, want %+v", got.metrics, wantSnap)
				}
				wantTraffic := QueryTraffic{Messages: wantMsgs, Bytes: wantBytes, PerMethod: wantMethod}
				if !reflect.DeepEqual(got.traffic, wantTraffic) {
					t.Errorf("query traffic = %+v, want %+v", got.traffic, wantTraffic)
				}

				// Sink 3 and 4: one span and one flight event per leg.
				trace.SortSpans(wantSpans)
				if len(got.spans) != len(wantSpans) || (len(wantSpans) > 0 && !reflect.DeepEqual(got.spans, wantSpans)) {
					t.Errorf("spans = %+v, want %+v", got.spans, wantSpans)
				}
				flight.SortEvents(wantEvents)
				if len(got.events) != len(wantEvents) || (len(wantEvents) > 0 && !reflect.DeepEqual(got.events, wantEvents)) {
					t.Errorf("flight events = %+v, want %+v", got.events, wantEvents)
				}

				// Observation is free: the bare run charges and returns the same.
				bare := runLegCase(op, sc, c, false)
				if bare.done != got.done || !reflect.DeepEqual(bare.metrics, got.metrics) ||
					!reflect.DeepEqual(bare.traffic, got.traffic) || (bare.err == nil) != (got.err == nil) {
					t.Errorf("arming the observers changed the run:\nbare:  %v %v %+v\narmed: %v %v %+v",
						bare.done, bare.err, bare.metrics, got.done, got.err, got.metrics)
				}
				if len(bare.spans) != 0 || len(bare.events) != 0 {
					t.Errorf("detached observers recorded %d spans, %d events", len(bare.spans), len(bare.events))
				}
			})
		}
	}
}

// TestUntracedLegLandsOnQueryZero: a payload without a context is charged
// and observed like any other leg, on the query-0 lane, and to no tracked
// query.
func TestUntracedLegLandsOnQueryZero(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	buf := trace.NewBuffer()
	n.SetRecorder(buf)
	n.TrackQuery(legQuery)
	if _, _, err := n.Call("a", "b", "plain", Bytes(1), 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", buf.Len())
	}
	for _, s := range buf.Spans() {
		if s.Query != 0 {
			t.Errorf("untraced span has query %d: %+v", s.Query, s)
		}
	}
	if got := n.UntrackQuery(legQuery); got.Messages != 0 || len(got.PerMethod) != 0 {
		t.Errorf("untraced legs charged to a tracked query: %+v", got)
	}
	if got := n.UntrackQuery(legQuery); got.Messages != 0 || got.PerMethod != nil {
		t.Errorf("untracked query still has an accumulator: %+v", got)
	}
}

// TestDisabledTracingAllocatesNothing pins the zero-overhead contract: the
// steady-state Call path with a nil recorder performs no allocations (the
// first call warms the per-method metric cells).
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	n := newTestNet()
	resp := Payload(Bytes(1))
	n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		return resp, at, nil
	}))
	n.Register("a", &echoNode{})
	req := Payload(Bytes(2))
	if _, _, err := n.Call("a", "b", "m", req, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := n.Call("a", "b", "m", req, 0); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-tracing Call allocates %.1f objects per op, want 0", allocs)
	}
}

// TestDisabledFlightAllocatesNothing is the flight twin: once every hook
// has been attached and detached again — the snapshot holds three nils —
// Call and Forward of a context-carrying payload, charged to a
// tracked query, allocate nothing.
func TestDisabledFlightAllocatesNothing(t *testing.T) {
	n := newTestNet()
	resp := Payload(Bytes(1))
	n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		return resp, at, nil
	}))
	n.Register("a", &echoNode{})
	n.SetRecorder(trace.NewBuffer())
	n.SetFlightRecorder(flight.NewRecorder(0))
	n.SetFaults(&FaultPlan{Seed: 1, LossRate: 0.5})
	n.SetRecorder(nil)
	n.SetFlightRecorder(nil)
	n.SetFaults(nil)
	n.TrackQuery(legQuery)
	req := Payload(tracedPayload{Size: 2, TC: trace.Root(legQuery)})
	for _, op := range legOps {
		if _, err := op.run(n, "b", req, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := op.run(n, "b", req, 0); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s with every hook nil allocates %.1f objects per op, want 0", op.name, allocs)
		}
	}
}
