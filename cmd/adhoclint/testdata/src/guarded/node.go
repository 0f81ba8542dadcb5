package guarded

import (
	"sync"

	"adhocshare/internal/simnet"
)

// Table has its own mutex: a node reaching its rows through n.table.rows
// needs n.table.mu.
type Table struct {
	mu   sync.Mutex
	rows map[string]int
}

// Node is a node type: its handlers and exported methods may run at once,
// so every field is guarded by the mutex declared last before it or, when
// declared before the first mutex, set at construction only.
type Node struct {
	name        string
	replication int
	table       *Table

	mu    sync.Mutex
	peers map[string]int

	statMu sync.Mutex
	hits   int
	count  int

	aMu   sync.RWMutex
	gauge int

	bMu   sync.Mutex
	limit int
}

// NewNode is a constructor, not a method: it may write every field.
func NewNode(name string) *Node {
	return &Node{name: name, replication: 2, table: &Table{rows: map[string]int{}}, peers: map[string]int{}}
}

// HandleCall makes Node a node type.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	if method == "drop_node" {
		n.replication = 1            // want "n.replication is set at construction (node type Node"
		delete(n.table.rows, n.name) // want "n.table.rows is guarded by n.table.mu"
		return nil, at, nil
	}
	n.mu.Lock()
	n.peers[n.name] += n.readHits()
	n.mu.Unlock()
	return nil, at, nil
}

// Reset writes count with no lock.
func (n *Node) Reset() {
	n.count = 0 // want "n.count is guarded by n.statMu"
}

// Touch reaches the unguarded hits write through a helper; the finding is
// at the write.
func (n *Node) Touch() {
	n.bump()
}

func (n *Node) bump() {
	n.hits++ // want "n.hits is guarded by n.statMu (declared after it) but accessed in bump"
}

func (n *Node) readHits() int {
	n.statMu.Lock()
	defer n.statMu.Unlock()
	return n.hits
}

// SetGauge holds a mutex, just not gauge's.
func (n *Node) SetGauge(v int) {
	n.bMu.Lock()
	n.gauge = v // want "n.gauge is guarded by n.aMu"
	n.bMu.Unlock()
}

// ShareGauge holds gauge's mutex, but only for reading.
func (n *Node) ShareGauge(v int) {
	n.aMu.RLock()
	n.gauge = v // want "written in ShareGauge under its read lock"
	n.aMu.RUnlock()
}

// Gauge reads under the read lock: clean.
func (n *Node) Gauge() int {
	n.aMu.RLock()
	defer n.aMu.RUnlock()
	return n.gauge
}

// SetLimit writes unguarded, suppressed the standard way.
func (n *Node) SetLimit(v int) {
	//adhoclint:ignore guarded-field(fixture: demonstrates suppression; the limit is set before the node serves)
	n.limit = v
}

// Name reads a construction-time field: clean.
func (n *Node) Name() string { return n.name }

// Flush calls a …Locked helper without the lock its name asks for.
func (n *Node) Flush() {
	n.clearLocked() // want "Flush calls n.clearLocked without holding a mutex of n"
}

// FlushLocked may: its own caller holds the lock.
func (n *Node) FlushLocked() { n.clearLocked() }

// Clear holds mu around the call: clean.
func (n *Node) Clear() {
	n.mu.Lock()
	n.clearLocked()
	n.mu.Unlock()
}

func (n *Node) clearLocked() { n.peers = map[string]int{} }
