// Package simnet is a deterministic discrete-cost network simulator. It is
// the testbed substitute for the paper's (unevaluated) ad-hoc deployment:
// every inter-node interaction in the overlay and the distributed query
// processor goes through Network.Call, which accounts messages and bytes
// and advances a virtual clock, so the trade-off the paper reasons about —
// total inter-site data transmission versus response time (Sect. IV-C and
// V) — is measured exactly and reproducibly.
//
// The model: a call from A to B carries a request payload and returns a
// response payload. Each direction costs BaseLatency plus size/Bandwidth
// of virtual time; handler computation is free unless the handler adds
// nested calls, whose cost it threads through explicitly. Parallel fan-out
// completes at the max of the branch completion times; chained forwarding
// accumulates. Failed nodes time out.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/trace"
)

// Addr identifies a node on the simulated network.
type Addr string

// VTime is a point in virtual time, in nanoseconds since the simulation
// epoch.
type VTime int64

// Add advances a virtual time by a duration.
func (t VTime) Add(d time.Duration) VTime { return t + VTime(d) }

// Duration returns the virtual time as a duration since the epoch.
func (t VTime) Duration() time.Duration { return time.Duration(t) }

func (t VTime) String() string { return time.Duration(t).String() }

// MaxTime returns the latest of the given times — the completion time of a
// parallel fan-out.
func MaxTime(times ...VTime) VTime {
	var m VTime
	for _, t := range times {
		if t > m {
			m = t
		}
	}
	return m
}

// Payload is any message body with a measurable wire size.
type Payload interface {
	SizeBytes() int
}

// Bytes is an opaque payload of a given size, for control messages.
type Bytes int

// SizeBytes implements Payload.
func (b Bytes) SizeBytes() int { return int(b) }

// Handler is implemented by every simulated node. HandleCall receives the
// virtual time at which the request arrives and returns the response along
// with the virtual time at which the response is ready to be sent back
// (at or later than `at`; later when the handler itself made nested calls).
type Handler interface {
	HandleCall(at VTime, method string, req Payload) (resp Payload, done VTime, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(at VTime, method string, req Payload) (Payload, VTime, error)

// HandleCall implements Handler.
func (f HandlerFunc) HandleCall(at VTime, method string, req Payload) (Payload, VTime, error) {
	return f(at, method, req)
}

// Errors returned by Call.
var (
	// ErrUnknownNode indicates the destination address was never registered.
	ErrUnknownNode = errors.New("simnet: unknown node")
	// ErrUnreachable indicates the destination node has failed or left.
	ErrUnreachable = errors.New("simnet: node unreachable")
)

// Config parameterizes the cost model.
type Config struct {
	// BaseLatency is the fixed per-message delay (default 2ms), the ad-hoc
	// hop cost.
	BaseLatency time.Duration
	// Bandwidth is the link throughput in bytes per second (default 1 MB/s,
	// a conservative ad-hoc wireless figure).
	Bandwidth float64
	// FailTimeout is the virtual time wasted discovering that a failed node
	// does not answer (default 500ms).
	FailTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.BaseLatency <= 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 1 << 20
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 500 * time.Millisecond
	}
	return c
}

// Message directions used as keys of Snapshot.PerDirection. A Call is two
// accounted messages (request + response); a Forward is one one-way leg,
// plus a response leg when it ends a route.
const (
	DirRequest  = "req"
	DirResponse = "resp"
	DirOneWay   = "send"
)

// Network is the simulated network fabric. It is safe for concurrent use.
type Network struct {
	cfg Config

	// metrics carries its own lock and sits above mu: traffic accounting
	// must never serialize behind the membership lock.
	metrics metrics

	// hooks is the current snapshot of the optional attachments; like
	// metrics it sits outside mu.
	hooks atomic.Pointer[hooks]

	mu     lockcheck.RWMutex
	nodes  map[Addr]Handler
	failed map[Addr]bool
	// linkFactor scales a node's link cost (latency and transfer time);
	// 1.0 (default) is a nominal link, larger is slower. The effective
	// factor of a transfer is the worse endpoint's factor. This models
	// the heterogeneous ad-hoc links that motivate QoS-aware join-site
	// selection (Ye et al., paper Sect. II).
	linkFactor map[Addr]float64
}

type cell struct{ dir, method string }

type metrics struct {
	mu       lockcheck.Mutex
	messages int64
	bytes    int64
	// cells holds one counter per (direction, method); Metrics folds them
	// into the snapshot's per-method and per-direction views.
	cells map[cell]*MethodStats
	// queries holds the per-trace accumulators registered by TrackQuery,
	// keyed by TraceContext.Query.
	queries map[uint64]*QueryTraffic
}

// hooks is one immutable snapshot of the fabric's optional attachments:
// span recorder, flight recorder and fault plan (nil = disabled). Setters
// publish a fresh copy and every operation loads the pointer once, so a
// leg sees one consistent set, the all-nil path allocates nothing, and
// neither observation nor loss draws block behind a membership change.
type hooks struct {
	rec    trace.Recorder
	flt    *flight.Recorder
	faults *FaultPlan
}

// setHooks publishes a copy of the current snapshot with edit applied.
func (n *Network) setHooks(edit func(*hooks)) {
	for {
		old := n.hooks.Load()
		next := *old
		edit(&next)
		if n.hooks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// MethodStats aggregates traffic for one RPC method.
type MethodStats struct {
	Messages int64
	Bytes    int64
}

// Snapshot is a point-in-time copy of the traffic counters.
type Snapshot struct {
	// Messages counts every payload transfer (a call and its response are
	// two messages).
	Messages int64
	// Bytes is the total payload volume.
	Bytes int64
	// PerMethod breaks traffic down by RPC method name.
	PerMethod map[string]MethodStats
	// PerDirection further splits each method's traffic by message
	// direction (DirRequest, DirResponse, DirOneWay):
	// direction → method → stats. The per-method totals equal the sum
	// over directions.
	PerDirection map[string]map[string]MethodStats
}

// Sub returns the delta s − earlier, for scoping counters to one window;
// cells without traffic in it are omitted.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{
		Messages:     s.Messages - earlier.Messages,
		Bytes:        s.Bytes - earlier.Bytes,
		PerMethod:    subMethods(s.PerMethod, earlier.PerMethod),
		PerDirection: map[string]map[string]MethodStats{},
	}
	for dir, methods := range s.PerDirection {
		if d := subMethods(methods, earlier.PerDirection[dir]); len(d) > 0 {
			out.PerDirection[dir] = d
		}
	}
	return out
}

func subMethods(s, earlier map[string]MethodStats) map[string]MethodStats {
	out := map[string]MethodStats{}
	for k, v := range s {
		d := MethodStats{Messages: v.Messages - earlier[k].Messages, Bytes: v.Bytes - earlier[k].Bytes}
		if d != (MethodStats{}) {
			out[k] = d
		}
	}
	return out
}

// New creates a network with the given cost model.
func New(cfg Config) *Network {
	n := &Network{
		cfg:        cfg.withDefaults(),
		metrics:    metrics{cells: map[cell]*MethodStats{}, queries: map[uint64]*QueryTraffic{}},
		nodes:      map[Addr]Handler{},
		failed:     map[Addr]bool{},
		linkFactor: map[Addr]float64{},
	}
	n.hooks.Store(&hooks{})
	return n
}

// Config returns the effective cost-model configuration.
func (n *Network) Config() Config { return n.cfg }

// SetRecorder attaches (or, with nil, detaches) a span recorder. Tracing
// is strictly observational: it never changes accounted messages, bytes,
// or virtual times, and the disabled path allocates nothing.
func (n *Network) SetRecorder(r trace.Recorder) { n.setHooks(func(h *hooks) { h.rec = r }) }

// Recorder returns the currently attached span recorder (nil = disabled).
func (n *Network) Recorder() trace.Recorder { return n.hooks.Load().rec }

// SetFlightRecorder attaches (or, with nil, detaches) a flight recorder.
// Like tracing it is strictly observational: it never changes accounted
// messages, bytes, or virtual times. Exactly one event is emitted per
// accounted message leg — a delivery, a recorded loss, or an unreachable
// mark — which is the basis of the traffic-conservation monitor.
func (n *Network) SetFlightRecorder(r *flight.Recorder) { n.setHooks(func(h *hooks) { h.flt = r }) }

// FlightRecorder returns the currently attached flight recorder (nil =
// disabled).
func (n *Network) FlightRecorder() *flight.Recorder { return n.hooks.Load().flt }

// Register attaches a handler at the given address, replacing any previous
// registration and clearing a failure mark.
func (n *Network) Register(addr Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = h
	delete(n.failed, addr)
}

// Deregister removes a node entirely (graceful departure).
func (n *Network) Deregister(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
	delete(n.failed, addr)
}

// Fail marks a node as crashed: calls to it time out until Recover.
func (n *Network) Fail(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		n.failed[addr] = true
	}
}

// Recover clears a failure mark.
func (n *Network) Recover(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failed, addr)
}

// Failed reports whether the node is currently marked failed.
func (n *Network) Failed(addr Addr) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.failed[addr]
}

// Alive reports whether the address is registered and not failed.
func (n *Network) Alive(addr Addr) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.nodes[addr]
	return ok && !n.failed[addr]
}

// Nodes returns the registered addresses, sorted.
func (n *Network) Nodes() []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Addr, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLinkFactor assigns a link-quality factor to a node: 1.0 nominal,
// larger is proportionally slower. Factors below a small positive floor
// are clamped.
func (n *Network) SetLinkFactor(addr Addr, factor float64) {
	if factor < 0.01 {
		factor = 0.01
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFactor[addr] = factor
}

// LinkFactor returns the node's link-quality factor (1.0 when unset).
// It is the "QoS monitoring" read used by QoS-aware placement.
func (n *Network) LinkFactor(addr Addr) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.linkFactor[addr]; ok {
		return f
	}
	return 1.0
}

// PathFactor is the effective factor of a transfer between two nodes: the
// worse endpoint dominates.
func (n *Network) PathFactor(from, to Addr) float64 {
	ff, tf := n.LinkFactor(from), n.LinkFactor(to)
	if ff > tf {
		return ff
	}
	return tf
}

// transferDelay is the virtual cost of moving size bytes one hop between
// the given endpoints.
func (n *Network) transferDelay(from, to Addr, size int) time.Duration {
	base := n.cfg.BaseLatency + time.Duration(float64(size)/n.cfg.Bandwidth*float64(time.Second))
	return time.Duration(float64(base) * n.PathFactor(from, to))
}

// lookup resolves a destination's handler and failure mark.
func (n *Network) lookup(to Addr) (h Handler, down bool, err error) {
	n.mu.RLock()
	h, ok := n.nodes[to]
	down = n.failed[to]
	n.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	return h, down, nil
}

// Call performs a synchronous simulated RPC. The request leaves `from` at
// virtual time `at`; the returned VTime is when the response arrives back
// at `from`. Traffic is accounted in both directions. A call from a node
// to itself is free and does not count as network traffic.
func (n *Network) Call(from, to Addr, method string, req Payload, at VTime) (Payload, VTime, error) {
	h, down, err := n.lookup(to)
	if err != nil {
		return nil, at, err
	}
	if from == to {
		return h.HandleCall(at, method, req)
	}
	hk, tc := n.hooks.Load(), trace.CtxOf(req)
	arrive, err := n.transmit(hk, leg{from: from, to: to, method: method, dir: DirRequest,
		size: payloadSize(req), start: at, tc: tc}, down)
	if err != nil {
		return nil, arrive, err
	}
	resp, done, herr := h.HandleCall(arrive, method, req)
	reply := leg{from: to, to: from, method: method, dir: DirResponse,
		size: payloadSize(resp), start: done, tc: tc.Child(trace.ResponseSeq)}
	if herr != nil {
		reply.size, reply.note = 0, noteErrorReply
	}
	// A lost reply leaves the handler's side effects standing while the
	// caller times out: retried mutating handlers must be idempotent.
	back, err := n.transmit(hk, reply, false)
	if herr != nil {
		err = herr
	}
	if err != nil {
		return nil, back, err
	}
	return resp, back, nil
}

// Forward is one leg of a routed request: req travels from `from` to `to`
// as a one-way message, the receiver's handler runs on arrival, and no
// reply leg comes back to `from`. With replyTo empty the receiver is a
// further hop: its handler's result and completion time are returned as
// they are, the time being when the route's answer reached its origin — a
// handler that ends the route itself sends that answer with Reply. With
// replyTo set the receiver ends the route: its result travels to replyTo as
// one Reply leg, whose arrival is the returned time (no leg when replyTo is
// the receiver itself). A handler error is returned as is, with no reply.
//
// No leg of a route is acknowledged, so a lost one stops the route where it
// left: Forward returns ErrMessageLost or ErrReplyLost at the lost leg's
// departure, and only the origin's own deadline charges the loss. A
// receiver found down is reported as Call reports it, after FailTimeout,
// so a hop can fall back to another; a hop to itself is free.
func (n *Network) Forward(from, to Addr, method string, req Payload, replyTo Addr, at VTime) (Payload, VTime, error) {
	h, down, err := n.lookup(to)
	if err != nil {
		return nil, at, err
	}
	hk, tc := n.hooks.Load(), trace.CtxOf(req)
	arrive := at
	if from != to {
		arrive, err = n.transmit(hk, leg{from: from, to: to, method: method, dir: DirOneWay,
			size: payloadSize(req), start: at, tc: tc}, down)
		if IsLost(err) {
			return nil, at, err
		}
		if err != nil {
			return nil, arrive, err
		}
	}
	resp, done, err := h.HandleCall(arrive, method, req)
	if err != nil || replyTo == "" {
		return resp, done, err
	}
	back, err := n.Reply(to, replyTo, method, resp, tc, done)
	if err != nil {
		return nil, back, err
	}
	return resp, back, nil
}

// Reply is the response leg that ends a route: resp travels from `from` to
// the route's origin `to`, traced as the response of the request whose
// context is tc, and the returned time is its arrival. A lost reply returns
// ErrReplyLost at its departure, as every lost leg of a route does; a reply
// to itself is free.
func (n *Network) Reply(from, to Addr, method string, resp Payload, tc trace.TraceContext, at VTime) (VTime, error) {
	if from == to {
		return at, nil
	}
	back, err := n.transmit(n.hooks.Load(), leg{from: from, to: to, method: method, dir: DirResponse,
		size: payloadSize(resp), start: at, tc: tc.Child(trace.ResponseSeq)}, false)
	if err != nil {
		return at, err
	}
	return back, nil
}

func payloadSize(p Payload) int {
	if p == nil {
		return 0
	}
	return p.SizeBytes()
}

// leg is one message leg: a payload put on the wire between two distinct
// registered nodes, and the only event the fabric produces. A Call is a
// request and a response leg, a Forward one leg (a Forward that ends a
// route adds its Reply's); every delivered leg runs its receiver's
// handler, except a response leg, which returns to its caller. The counters,
// the per-query accumulators, the span recorder and the flight recorder
// are all sinks of the one stream transmit emits.
type leg struct {
	from, to   Addr
	method     string
	dir        string // DirRequest, DirResponse or DirOneWay
	size       int    // accounted payload bytes
	start, end VTime  // departure; arrival, or when the sender gives up
	// outcome is the leg's fate as a flight kind (KindDeliver, KindLost,
	// KindUnreachable); note qualifies it: noteErrorReply, "reply" on a
	// lost response, "in-flight crash".
	outcome, note string
	tc            trace.TraceContext // zero = the untraced query-0 lane
}

// noteErrorReply marks the response leg of a handler error: a small
// control message accounted at size 0, delayed as errorReplyWire bytes and
// exempt from loss draws — dropping an error ack would only mask the
// application error behind ErrReplyLost without creating any new caller
// obligation.
const (
	noteErrorReply = "error"
	errorReplyWire = 16
)

// transmit puts one leg on the wire and returns when it ends: the one
// place a leg meets its fate, is charged and is observed. l arrives with
// coordinates and start set; down reports a destination marked failed.
// Forward legs (request, one-way) find a failed or crashed
// destination unreachable, at departure or on arrival; response legs
// return to a caller that is still there. An unanswered leg costs its
// sender FailTimeout — except a lost one-way message, which carries no
// acknowledgement: its sender pays only the wire delay, and the loss
// error is advisory.
//
// A leg put on the wire stays charged and observed whether or not the
// operation it belongs to completes.
func (n *Network) transmit(hk *hooks, l leg, down bool) (_ VTime, err error) {
	lockcheck.AssertNoneHeld()
	forward, wire := l.dir != DirResponse, l.size
	if l.note == noteErrorReply {
		wire = errorReplyWire
	}
	switch timeout := l.start.Add(n.cfg.FailTimeout); {
	case forward && (down || hk.faults.crashed(l.to, l.start)):
		l.outcome, l.end = flight.KindUnreachable, timeout
	case l.note != noteErrorReply && hk.faults.drop(l.from, l.to, l.method, l.dir, l.start, l.size):
		l.outcome, l.end = flight.KindLost, timeout
		if l.dir == DirOneWay {
			l.end = l.start.Add(n.transferDelay(l.from, l.to, wire))
		}
		if forward {
			err = fmt.Errorf("%w: %s %s", ErrMessageLost, l.method, l.to)
		} else {
			l.note = "reply"
			err = fmt.Errorf("%w: %s %s", ErrReplyLost, l.method, l.from)
		}
	default:
		l.outcome, l.end = flight.KindDeliver, l.start.Add(n.transferDelay(l.from, l.to, wire))
		if forward && hk.faults.crashed(l.to, l.end) {
			l.outcome, l.end, l.note = flight.KindUnreachable, timeout, "in-flight crash"
		}
	}
	if l.outcome == flight.KindUnreachable {
		err = fmt.Errorf("%w: %s", ErrUnreachable, l.to)
	}

	n.metrics.charge(&l)
	if hk.rec != nil {
		note := l.note
		if l.outcome != flight.KindDeliver {
			note = l.outcome
		}
		hk.rec.Record(trace.Span{
			Query:  l.tc.Query,
			ID:     l.tc.Span,
			Parent: l.tc.Parent,
			Kind:   trace.KindMessage,
			Name:   l.method,
			From:   string(l.from),
			To:     string(l.to),
			Start:  int64(l.start),
			End:    int64(l.end),
			Bytes:  l.size,
			Note:   note,
		})
	}
	if hk.flt != nil {
		hk.flt.Emit(flight.Event{
			Node:   string(l.from),
			Kind:   l.outcome,
			VT:     int64(l.start),
			End:    int64(l.end),
			Peer:   string(l.to),
			Method: l.method,
			Query:  l.tc.Query,
			Note:   l.note,
		})
	}
	return l.end, err
}

// charge adds one leg to the always-on counters and to the accumulator of
// the trace it belongs to, if one is registered.
func (m *metrics) charge(l *leg) {
	size := int64(l.size)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.messages++
	m.bytes += size
	c := m.cells[cell{l.dir, l.method}]
	if c == nil {
		c = &MethodStats{}
		m.cells[cell{l.dir, l.method}] = c
	}
	c.Messages++
	c.Bytes += size
	if q := m.queries[l.tc.Query]; q != nil {
		q.Messages++
		q.Bytes += size
		qs := q.PerMethod[l.method]
		qs.Messages++
		qs.Bytes += size
		q.PerMethod[l.method] = qs
	}
}

// QueryTraffic is the traffic charged to one trace: every accounted leg
// whose TraceContext carries the trace's query identifier, however many
// other operations share the fabric meanwhile.
type QueryTraffic struct {
	Messages  int64
	Bytes     int64
	PerMethod map[string]MethodStats
}

// TrackQuery starts attributing legs to the given trace identifier.
func (n *Network) TrackQuery(query uint64) {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries[query] = &QueryTraffic{PerMethod: map[string]MethodStats{}}
}

// UntrackQuery stops attributing legs to the trace and returns what it was
// charged (zero if it was never tracked).
func (n *Network) UntrackQuery(query uint64) QueryTraffic {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queries[query]
	if q == nil {
		return QueryTraffic{}
	}
	delete(m.queries, query)
	return *q
}

// Metrics returns a snapshot of the traffic counters.
func (n *Network) Metrics() Snapshot {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		Messages:     m.messages,
		Bytes:        m.bytes,
		PerMethod:    make(map[string]MethodStats, len(m.cells)),
		PerDirection: make(map[string]map[string]MethodStats, 3),
	}
	for k, c := range m.cells {
		pm := out.PerMethod[k.method]
		pm.Messages += c.Messages
		pm.Bytes += c.Bytes
		out.PerMethod[k.method] = pm
		if out.PerDirection[k.dir] == nil {
			out.PerDirection[k.dir] = map[string]MethodStats{}
		}
		out.PerDirection[k.dir][k.method] = *c
	}
	return out
}

// ResetMetrics zeroes all counters, including the per-direction cells.
func (n *Network) ResetMetrics() {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	m.messages, m.bytes, m.cells = 0, 0, map[cell]*MethodStats{}
}
