// Package alloc exercises the hot-path allocation rule: functions
// reachable from HandleCall dispatch or from fabric calls run once per
// message, and must not pay avoidable heap allocations there.
package alloc

import (
	"fmt"

	"adhocshare/internal/flight"
	"adhocshare/internal/simnet"
)

// MethodEcho is the package's only wire method.
const MethodEcho = "al.echo"

// Req is a minimal request payload.
type Req struct{ Names []string }

func (Req) SizeBytes() int { return 8 }

// Resp is a minimal response payload.
type Resp struct{ Labels []string }

func (Resp) SizeBytes() int { return 8 }

// Node is a simnet participant.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr
	flt  *flight.Recorder
}

// HandleCall dispatches; everything it statically reaches is hot.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodEcho:
		r, _ := req.(Req)
		_ = n.joinNames(r)
		_ = n.countNames(r)
		n.describe(r)
		n.visitAll(r)
		_ = n.brandNew(r)
		_ = n.debugDump(r)
		_ = n.pairs(r)
		_ = n.echoSized(r)
		n.recordAll(r)
		return n.echo(r), at, nil
	}
	return nil, at, nil
}

// recordAll emits one flight event per name on the hot path. Flight
// callees are fabric-neutral and hot-path-safe by contract
// (observability_knowledge.go): the allocation walk does not descend into Emit,
// and the all-value-type Event literal costs nothing — no findings here.
func (n *Node) recordAll(r Req) {
	for _, name := range r.Names {
		n.flt.Emit(flight.Event{Node: name, Kind: flight.KindDeliver, Method: MethodEcho})
	}
}

// echo grows an unsized slice across the request's names.
func (n *Node) echo(r Req) Resp {
	labels := []string{}
	for _, name := range r.Names {
		labels = append(labels, label(name)) // want "grows by append"
	}
	return Resp{Labels: labels}
}

// echoSized presizes with the loop's trip count: not flagged.
func (n *Node) echoSized(r Req) Resp {
	labels := make([]string, 0, len(r.Names))
	for _, name := range r.Names {
		labels = append(labels, name)
	}
	return Resp{Labels: labels}
}

// label formats one per-message string through fmt's reflection.
func label(name string) string {
	return fmt.Sprintf("label-%s", name) // want "fmt.Sprintf"
}

// joinNames accumulates a string, re-allocating it on every step.
func (n *Node) joinNames(r Req) string {
	s := ""
	for _, name := range r.Names {
		s += name // want "string"
	}
	sep := ""
	sep = sep + s + "!" // want "accumulated string"
	return sep
}

// countNames populates an unsized map with one entry per name.
func (n *Node) countNames(r Req) map[string]int {
	counts := map[string]int{}
	for _, name := range r.Names {
		counts[name] = counts[name] + 1 // want "map counts is populated"
	}
	return counts
}

// record is a sink with an empty-interface parameter.
func record(v any) { _ = v }

// describe boxes a concrete int into record's any parameter.
func (n *Node) describe(r Req) {
	record(r.SizeBytes()) // want "boxed into an empty interface"
}

// visitAll allocates one closure per iteration.
func (n *Node) visitAll(r Req) {
	for _, name := range r.Names {
		f := func() string { return name } // want "closure allocated inside a loop"
		_ = f()
	}
}

// pairs appends inside a nested loop: the growth is quadratic in intent,
// not presizable from one trip count, so the rule stays quiet.
func (n *Node) pairs(r Req) []string {
	var out []string
	for _, a := range r.Names {
		for _, b := range r.Names {
			out = append(out, a+b)
		}
	}
	return out
}

// brandNew formats per message but documents why it is tolerated.
func (n *Node) brandNew(r Req) string {
	return fmt.Sprintf("v%d", r.SizeBytes()) //adhoclint:ignore alloc(one-off version banner, measured cold)
}

// debugDump is deliberately cold reporting: the directive removes it from
// the hot set and stops reachability through it.
//
//adhoclint:hotexempt invoked only from the operator dump path
func (n *Node) debugDump(r Req) string {
	s := ""
	for _, name := range r.Names {
		s += dumpLabel(name)
	}
	return s
}

// dumpLabel is only reachable through the exempt dump: never hot.
func dumpLabel(name string) string {
	return fmt.Sprintf("dump-%s", name)
}

// Probe performs a fabric call itself, so it is hot without any handler.
func (n *Node) Probe(to simnet.Addr, at simnet.VTime) simnet.VTime {
	_, done, err := n.net.Call(n.addr, to, MethodEcho, Req{}, at)
	if err != nil {
		return at
	}
	note := fmt.Sprintf("probe done at %d", int64(done)) // want "fmt.Sprintf"
	_ = note
	return done
}

// ProbeAll reaches the fabric through Probe: hot via the fixpoint.
func (n *Node) ProbeAll(peers []simnet.Addr, at simnet.VTime) {
	tags := []string{}
	for _, p := range peers {
		tags = append(tags, string(p)) // want "grows by append"
		at = n.Probe(p, at)
	}
	_ = tags
}

// FanOut hands its branch literal straight to simnet.Parallel: the
// sanctioned fan-out pattern, not a flagged per-iteration closure.
func (n *Node) FanOut(peers []simnet.Addr, at simnet.VTime) simnet.VTime {
	for round := 0; round < 2; round++ {
		res, done := simnet.Parallel(len(peers), 4, func(i int) (int, simnet.VTime, error) {
			return 0, n.Probe(peers[i], at), nil
		})
		_ = res
		at = done
	}
	return at
}

// Setup never reaches the fabric: its allocations are cold and unflagged.
func Setup(names []string) map[string]int {
	m := map[string]int{}
	for _, n := range names {
		m[n] = len(n)
	}
	return m
}
