package simnet

import "runtime"

// Concurrent delivery: the per-message server goroutine a real transport
// would use.
//
// The serial fabric invokes every destination handler inline on the
// calling goroutine. With Config.ConcurrentDelivery on, each remote
// delivery instead runs its handler on a fresh goroutine — the shape a
// TCP/QUIC backend will have — behind a small deterministic yield jitter
// derived from the message coordinates, and the dispatching operation
// waits for it and commits its result. Virtual times, accounted traffic
// and every table derived from them are byte-identical to serial delivery.
//
// One client goroutine has one message in flight at a time (simnet.Parallel
// runs its branches in index order), so for it the mode only moves each
// handler to another goroutine. Handlers overlap when several client
// goroutines drive one deployment, and there the jitter makes `-race` runs
// explore shifted interleavings without perturbing any simulated quantity.

// deliveryResult carries one handler completion back to the dispatching
// fabric operation.
type deliveryResult struct {
	resp Payload
	done VTime
	err  error
}

// deliver runs the destination handler for one arrived message. Serial
// mode invokes it inline; concurrent mode spawns the per-message server
// goroutine and waits for its commit, so callers observe identical
// results either way.
func (n *Network) deliver(h Handler, from, to Addr, method string, req Payload, arrive VTime) (Payload, VTime, error) {
	if !n.cfg.ConcurrentDelivery {
		return h.HandleCall(arrive, method, req)
	}
	ch := make(chan deliveryResult, 1)
	go func() {
		for i := deliveryJitter(from, to, method, arrive); i > 0; i-- {
			runtime.Gosched()
		}
		resp, done, err := h.HandleCall(arrive, method, req)
		ch <- deliveryResult{resp: resp, done: done, err: err}
	}()
	r := <-ch
	return r.resp, r.done, r.err
}

// deliveryJitter derives a per-message yield count in [0, 8) from the leg
// coordinates, the same splitmix64-over-FNV construction the fault plan
// uses for loss draws: a pure function of simulated quantities, so the
// perturbation is reproducible and independent of host scheduling.
func deliveryJitter(from, to Addr, method string, arrive VTime) int {
	h := mix64(0x5de11ce2b0a7c915 ^ hashString(string(from)))
	h = mix64(h ^ hashString(string(to)))
	h = mix64(h ^ hashString(method))
	h = mix64(h ^ uint64(arrive))
	return int(h & 7)
}
