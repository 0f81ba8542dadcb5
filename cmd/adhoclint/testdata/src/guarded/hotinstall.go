package guarded

import (
	"sync"

	"adhocshare/internal/simnet"
)

// hotState is internally locked: its own fields are safe, the pointer to
// it is what races.
type hotState struct {
	mu       sync.Mutex
	counters map[string]int
}

// AdaptiveNode is overlay.IndexNode before its hot pointer had a mutex: a
// node type with no mutex, so every field is set at construction, and
// EnableAdaptive installs the detector with a plain store while HandleCall
// reads the pointer on every dispatch.
type AdaptiveNode struct {
	hot      *hotState
	deadline simnet.VTime
}

// HandleCall reads the hot pointer and counts under the detector's mu.
func (n *AdaptiveNode) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if n.hot != nil {
		n.hot.mu.Lock()
		n.hot.counters[method]++
		n.hot.mu.Unlock()
	}
	if at > n.deadline {
		return nil, at, nil
	}
	return nil, at + 1, nil
}

// EnableAdaptive installs the detector with a bare store: the racing write.
func (n *AdaptiveNode) EnableAdaptive() {
	n.hot = &hotState{counters: make(map[string]int)} // want "n.hot is set at construction (node type AdaptiveNode"
}

// SetDeadline is the same shape, suppressed the standard way.
func (n *AdaptiveNode) SetDeadline(d simnet.VTime) {
	//adhoclint:ignore guarded-field(fixture: demonstrates suppression; the deadline is set before the node serves)
	n.deadline = d
}
