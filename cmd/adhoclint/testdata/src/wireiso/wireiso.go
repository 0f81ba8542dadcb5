// Package wireiso exercises the wire-isolation rule: payloads crossing
// the simnet fabric must be fresh, deep-copied, wire-derived or
// documented immutable — never aliases of mutable node state.
package wireiso

import (
	"sort"

	"adhocshare/internal/flight"
	"adhocshare/internal/simnet"
)

// Wire methods.
const (
	MethodGet    = "iso.get"
	MethodPut    = "iso.put"
	MethodShip   = "iso.ship"
	MethodEvents = "iso.events"
)

// Row is a reference-free posting.
type Row struct{ K, V int }

// RowsResp ships a batch of rows.
type RowsResp struct{ Rows []Row }

func (r RowsResp) SizeBytes() int { return 16 * len(r.Rows) }

// Table is a lookup table, immutable after construction by convention:
// every mutation goes through Clone.
//
//adhoclint:wireimmutable producers clone before writing
type Table map[string]int

func (t Table) SizeBytes() int { return 9 * len(t) }

// Clone returns an independent copy.
func (t Table) Clone() Table {
	out := make(Table, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// EventsResp ships recent flight-recorder events. flight.Event is
// reference-free by contract (strings and integers only — see
// observability_knowledge.go), so events are wire-safe in any payload position;
// only the slice holding them must be fresh.
type EventsResp struct{ Events []flight.Event }

func (e EventsResp) SizeBytes() int { return 64 * len(e.Events) }

// Node holds mutable state a payload must never alias.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr
	rows []Row
	tbl  Table
	flt  *flight.Recorder
}

// Bump mutates a row in place: n.rows is live mutable state, so sharing
// it on the wire is never safe.
func (n *Node) Bump(i int) {
	n.rows[i].V += 1
}

// HandleCall dispatches the package's methods.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodGet:
		return RowsResp{Rows: n.rows}, at, nil // want "alias mutable node state"
	case MethodPut:
		r := req.(RowsResp)
		n.rows = r.Rows // want "request-derived reference"
		return RowsResp{Rows: append([]Row(nil), n.rows...)}, at, nil
	case MethodShip:
		r := req.(RowsResp)
		n.rows = append([]Row(nil), r.Rows...) // copied on receive: fine
		return RowsResp{Rows: r.Rows}, at, nil // forwarding the request is ownership transfer
	case MethodEvents:
		// LastN returns a fresh copy of reference-free events: clean.
		return EventsResp{Events: n.flt.LastN(string(n.addr), 8)}, at, nil
	}
	return nil, at, nil
}

// Rows returns a defensive copy (the summary cache marks it fresh).
func (n *Node) Rows() []Row {
	return append([]Row(nil), n.rows...)
}

// PushCopy ships the copy returned by Rows: clean.
func (n *Node) PushCopy(to simnet.Addr, at simnet.VTime) {
	n.net.Call(n.addr, to, MethodPut, RowsResp{Rows: n.Rows()}, at)
}

// Push builds a fresh payload but keeps mutating it after the send.
func (n *Node) Push(to simnet.Addr, at simnet.VTime) simnet.VTime {
	out := append([]Row(nil), n.rows...)
	_, done, err := n.net.Call(n.addr, to, MethodPut, RowsResp{Rows: out}, at)
	if err != nil {
		return done
	}
	out[0] = Row{}                                                      // want "mutated after send"
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K }) // want "sorted in place after send"
	return done
}

// PushFrozen shares live rows on purpose; the escape hatch documents why.
func (n *Node) PushFrozen(to simnet.Addr, at simnet.VTime) {
	//adhoclint:ignore wireiso(rows are frozen for the duration of the handover)
	n.net.Call(n.addr, to, MethodPut, RowsResp{Rows: n.rows}, at)
}

// ship forwards rows it was handed: the copy obligation lands on callers.
func (n *Node) ship(to simnet.Addr, rows []Row, at simnet.VTime) {
	n.net.Call(n.addr, to, MethodShip, RowsResp{Rows: rows}, at)
}

// ShipFresh feeds ship a fresh copy: clean.
func (n *Node) ShipFresh(to simnet.Addr, at simnet.VTime) {
	n.ship(to, append([]Row(nil), n.rows...), at)
}

// ShipLive feeds ship the live row slice: flagged at this call site.
func (n *Node) ShipLive(to simnet.Addr, at simnet.VTime) {
	n.ship(to, n.rows, at) // want "flows to the wire"
}

// SendTable ships the documented-immutable table without copying: clean.
func (n *Node) SendTable(to simnet.Addr, at simnet.VTime) {
	n.net.Call(n.addr, to, MethodShip, n.tbl, at)
}

// AddEntry honours the immutability convention: clone, write, swap.
func (n *Node) AddEntry(k string, v int) {
	nt := n.tbl.Clone()
	nt[k] = v
	n.tbl = nt
}

// AddEntryInPlace violates the convention the directive documents.
func (n *Node) AddEntryInPlace(k string, v int) {
	n.tbl[k] = v // want "documented-immutable"
}

// Log is generic: the rule summarizes no instantiated method's body, and
// takes an Append* method's result to be as fresh as the base it extends.
type Log[E any] struct{ items []E }

// AppendAll appends the log's values to dst.
func (l *Log[E]) AppendAll(dst []E) []E { return append(dst, l.items...) }

// SendAppended appends onto a fresh base (clean), then onto live rows.
func (n *Node) SendAppended(to simnet.Addr, at simnet.VTime) (simnet.VTime, error) {
	l := &Log[Row]{items: []Row{{K: 1}}}
	_, done, err := n.net.Call(n.addr, to, MethodPut, RowsResp{Rows: l.AppendAll(nil)}, at)
	if err != nil {
		return done, err
	}
	_, done, err = n.net.Call(n.addr, to, MethodPut, RowsResp{Rows: l.AppendAll(n.rows)}, done) // want "field rows"
	return done, err
}
