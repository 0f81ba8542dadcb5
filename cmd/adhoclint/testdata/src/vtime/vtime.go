// Package vtime exercises the vtime-accounting rule: handlers must thread
// the charged VTime, and the VTime a fabric call charges must not be
// dropped.
package vtime

import "adhocshare/internal/simnet"

// MethodPing is the package's only wire method.
const MethodPing = "vt.ping"

// Ping is a minimal payload.
type Ping struct{ N int }

func (Ping) SizeBytes() int { return 8 }

// Node is a simnet participant.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr
}

// PingAll drops every charged VTime: its calls run off the books.
func (n *Node) PingAll(peers []simnet.Addr, at simnet.VTime) {
	for _, p := range peers {
		_, _, _ = n.net.Call(n.addr, p, MethodPing, Ping{}, at) // want "is discarded"
	}
}

// FanOutParallel uses the sanctioned combinator: clean.
func (n *Node) FanOutParallel(peers []simnet.Addr, at simnet.VTime) simnet.VTime {
	res, done := simnet.Parallel(len(peers), 4, func(i int) (int, simnet.VTime, error) {
		_, d, err := n.net.Call(n.addr, peers[i], MethodPing, Ping{}, at)
		return 0, d, err
	})
	_ = res
	return done
}

// CollectBad accumulates into captured state: clean — branches run in
// index order on the caller's goroutine, so the total is defined.
func (n *Node) CollectBad(peers []simnet.Addr, at simnet.VTime) int {
	total := 0
	res, _ := simnet.Parallel(len(peers), 2, func(i int) (int, simnet.VTime, error) {
		total += i
		return 0, at, nil
	})
	_ = res
	return total
}

// CollectGood writes only the branch's own slot: clean.
func (n *Node) CollectGood(peers []simnet.Addr, at simnet.VTime) []int {
	out := make([]int, len(peers))
	res, _ := simnet.Parallel(len(peers), 2, func(i int) (int, simnet.VTime, error) {
		out[i] = i
		return 0, at, nil
	})
	_ = res
	return out
}

// HandleCall dispatches vt.ping.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if method == MethodPing {
		return Ping{}, at + 1, nil // charged time threaded: clean
	}
	return Ping{}, simnet.VTime(7), nil // want "unrelated to the charged time"
}

// Notify drops the whole Send result, charged VTime included.
func (n *Node) Notify(to simnet.Addr, at simnet.VTime) {
	n.net.Send(n.addr, to, MethodPing, Ping{}, at) // want "is discarded"
}

// Relay threads the charged done value: clean.
func (n *Node) Relay(to simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	done, err := n.net.Send(n.addr, to, MethodPing, Ping{}, at)
	return done, err
}
