// Package faultpath exercises the fault-soundness rule: discarded fabric
// errors need a declared fire-and-forget disposition, mutate-then-send
// paths need a compensation declaration, Parallel fan-outs declare
// abort-all or collect-partial, and methods retried through CallRetry
// with mutating handlers declare idempotent on their constants.
package faultpath

import (
	"adhocshare/internal/simnet"
)

// Wire methods dispatched by Node.HandleCall.
const (
	MethodGet = "fp.get" // read-only handler: retried freely
	MethodPut = "fp.put" // want "is retried from"
	//adhoclint:faultpath(idempotent, the handler deduplicates re-deliveries by sequence number)
	MethodInc = "fp.inc" // mutating handler, declared idempotent: clean
	MethodLog = "fp.log" // fire-and-forget notification target
)

// Msg is a minimal payload.
type Msg struct {
	Key string
	N   int
}

// SizeBytes implements simnet.Payload.
func (m Msg) SizeBytes() int { return len(m.Key) + 8 }

// IncReq carries a deduplication sequence number.
type IncReq struct{ Seq uint64 }

// SizeBytes implements simnet.Payload.
func (IncReq) SizeBytes() int { return 8 }

// Node is a simnet participant.
type Node struct {
	net   *simnet.Network
	addr  simnet.Addr
	count int
	vals  map[string]int
	seen  map[uint64]bool
}

// HandleCall dispatches the node's methods.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodGet:
		return Msg{N: n.count}, at + 1, nil
	case MethodPut:
		r := req.(Msg)
		n.vals[r.Key] = r.N // re-delivered puts re-apply blindly
		return Msg{}, at + 1, nil
	case MethodInc:
		r := req.(IncReq)
		if !n.seen[r.Seq] {
			n.seen[r.Seq] = true
			n.count++
		}
		return Msg{}, at + 1, nil
	case MethodLog:
		return Msg{}, at + 1, nil
	}
	return nil, at, nil
}

// Notify drops the whole Send result without declaring a disposition.
func (n *Node) Notify(to simnet.Addr, at simnet.VTime) {
	n.net.Send(n.addr, to, MethodLog, Msg{}, at) // want "discarded with no declared fault disposition"
}

// NotifyDeclared is a documented fire-and-forget: clean.
func (n *Node) NotifyDeclared(to simnet.Addr, at simnet.VTime) {
	//adhoclint:faultpath(fire-and-forget, best-effort log notification; loss is repaired by the next periodic sweep)
	n.net.Send(n.addr, to, MethodLog, Msg{}, at)
}

// NotifyMisdeclared carries a disposition that cannot cover a discarded
// error.
func (n *Node) NotifyMisdeclared(to simnet.Addr, at simnet.VTime) {
	//adhoclint:faultpath(abort-all)
	n.net.Send(n.addr, to, MethodLog, Msg{}, at) // want "does not cover a discarded error"
}

// NotifyBlankErr keeps the VTime but blanks the error.
func (n *Node) NotifyBlankErr(to simnet.Addr, at simnet.VTime) simnet.VTime {
	done, _ := n.net.Send(n.addr, to, MethodLog, Msg{}, at) // want "discarded with no declared fault disposition"
	return done
}

// directiveLint holds deliberately malformed declarations.
func directiveLint() {
	//adhoclint:faultpath(retryable, made-up disposition) // want "unknown faultpath disposition"
	_ = 0
	//adhoclint:faultpath(idempotent) // want "requires a reason"
	_ = 1
}

// Install mutates node state and then propagates a fallible send's error:
// nothing rolls the counter back when the send fails.
func (n *Node) Install(to simnet.Addr, at simnet.VTime) error {
	n.count++
	_, _, err := n.net.Call(n.addr, to, MethodPut, Msg{}, at) // want "caller-visible state is mutated"
	return err
}

// register and registerVia carry the mutation through a call chain.
func (n *Node) register(key string) { n.vals[key] = 1 }

func (n *Node) registerVia(key string) { n.register(key) }

// InstallVia mutates through helpers: the finding names the chain.
func (n *Node) InstallVia(to simnet.Addr, at simnet.VTime) error {
	n.registerVia("k")
	_, _, err := n.net.Call(n.addr, to, MethodPut, Msg{}, at) // want "registerVia"
	return err
}

// InstallCompensated declares its rollback: clean.
//adhoclint:faultpath(compensated, the counter is decremented again when the send fails)
func (n *Node) InstallCompensated(to simnet.Addr, at simnet.VTime) error {
	n.count++
	_, _, err := n.net.Call(n.addr, to, MethodPut, Msg{}, at)
	if err != nil {
		n.count--
	}
	return err
}

// bump is a declared failure-benign counter.
//adhoclint:faultpath(benign, statistics counter; a failed operation wastes one count)
func (n *Node) bump() { n.count++ }

// Observe mutates only through a benign helper: clean.
func (n *Node) Observe(to simnet.Addr, at simnet.VTime) error {
	n.bump()
	_, _, err := n.net.Call(n.addr, to, MethodGet, Msg{}, at)
	return err
}

// Build mutates only a fresh local: clean.
func (n *Node) Build(to simnet.Addr, at simnet.VTime) error {
	m := map[string]int{}
	m["x"] = 1
	_, _, err := n.net.Call(n.addr, to, MethodGet, Msg{}, at)
	return err
}

// FanOutUndeclared leaves the fan-out's failure semantics unstated.
func (n *Node) FanOutUndeclared(peers []simnet.Addr, at simnet.VTime) simnet.VTime {
	_, done := simnet.Parallel(len(peers), 2, func(i int) (int, simnet.VTime, error) { // want "must declare its failure semantics"
		_, d, err := n.net.Call(n.addr, peers[i], MethodGet, Msg{}, at)
		return 0, d, err
	})
	return done
}

// FanOutDeclared aborts on the first failed branch: clean.
func (n *Node) FanOutDeclared(peers []simnet.Addr, at simnet.VTime) simnet.VTime {
	//adhoclint:faultpath(abort-all)
	_, done := simnet.Parallel(len(peers), 2, func(i int) (int, simnet.VTime, error) {
		_, d, err := n.net.Call(n.addr, peers[i], MethodGet, Msg{}, at)
		return 0, d, err
	})
	return done
}

// FanOutMisdeclared carries a disposition that does not apply to fan-out.
func (n *Node) FanOutMisdeclared(peers []simnet.Addr, at simnet.VTime) simnet.VTime {
	//adhoclint:faultpath(idempotent, the branches deduplicate)
	_, done := simnet.Parallel(len(peers), 2, func(i int) (int, simnet.VTime, error) { // want "does not apply to a Parallel fan-out"
		_, d, err := n.net.Call(n.addr, peers[i], MethodGet, Msg{}, at)
		return 0, d, err
	})
	return done
}

// RetryGet retries the read-only get: clean.
func (n *Node) RetryGet(to simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	_, done, err := n.net.CallRetry(n.addr, to, MethodGet, Msg{}, at)
	return done, err
}

// StoreAll retries the mutating put against each peer: MethodPut's handler
// re-applies blindly, so the rule demands an idempotent declaration on the
// constant (reported there).
func (n *Node) StoreAll(peers []simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	now := at
	for _, p := range peers {
		_, done, err := n.net.CallRetry(n.addr, p, MethodPut, Msg{Key: "k", N: 1}, now)
		now = done
		if err != nil {
			return now, err
		}
	}
	return now, nil
}

// IncAll retries the deduplicating increment: the constant's idempotent
// declaration covers it.
func (n *Node) IncAll(to simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	_, done, err := n.net.CallRetry(n.addr, to, MethodInc, IncReq{Seq: 1}, at)
	return done, err
}

// Meter keeps its counters in a struct field it updates through a pointer.
type Meter struct {
	net   *simnet.Network
	addr  simnet.Addr
	stats struct{ messages int }
}

// Charge hides the receiver write behind m := &recv.field: the alias
// still roots at the receiver, so the mutation counts.
func (t *Meter) Charge(to simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	m := &t.stats
	m.messages++
	_, done, err := t.net.Call(t.addr, to, MethodGet, Msg{}, at) // want "caller-visible state is mutated at line 217"
	return done, err
}

// MethodTally is sent with Forward: a route's origin re-sends it whole
// after a loss, re-running every handler on it.
const MethodTally = "fp.tally" // want "is retried from"

// Relay is one hop of a route.
type Relay struct {
	net  *simnet.Network
	addr simnet.Addr
	// hits counts every tally; its write carries the exemption.
	hits int
}

// HandleCall counts every tally it receives, re-deliveries included.
func (r *Relay) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodTally:
		r.hits++ //adhoclint:ignore guarded-field(one route at a time reaches a relay in this fixture)
		return Msg{}, at, nil
	}
	return nil, at, nil
}

// Route forwards a tally to the route's end, which answers origin.
func (r *Relay) Route(to, origin simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	_, done, err := r.net.Forward(r.addr, to, MethodTally, Msg{}, origin, at)
	return done, err
}
