// Package locked is the lock-blocking rule fixture: no channel operations
// or fabric calls (Call/Forward) while a mutex is held.
package locked

import "sync"

type fabric struct{}

func (fabric) Call(x int) int         { return x }
func (fabric) CallRetry(x int) int    { return x }
func (fabric) ForwardRetry(x int) int { return x }

type node struct {
	mu  sync.Mutex
	out chan int
	net fabric
}

func (n *node) Good(v int) int {
	n.mu.Lock()
	x := v + 1
	n.mu.Unlock()
	n.out <- x // fine: lock already released
	return n.net.Call(x)
}

func (n *node) BadSend(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.out <- v // want "channel send while n.mu is held"
}

func (n *node) BadRecv() int {
	n.mu.Lock()
	v := <-n.out // want "channel receive while n.mu is held"
	n.mu.Unlock()
	return v
}

func (n *node) BadCall(v int) {
	n.mu.Lock()
	n.net.Call(v) // want "simnet RPC"
	n.mu.Unlock()
}

func (n *node) BadCallRetry(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.net.CallRetry(v) // want "simnet RPC"
}

func (n *node) BadForwardRetry(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.net.ForwardRetry(v) // want "simnet routed leg"
}

func (n *node) BadSelect() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want "select while n.mu is held"
	case v := <-n.out:
		n.out <- v
	default:
	}
}
