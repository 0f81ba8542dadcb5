package rpcproto

import "adhocshare/internal/simnet"

// Node is a minimal simnet participant.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr
	vals map[int]int
}

// HandleCall dispatches the package's methods.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case MethodGet:
		r := req.(GetReq)
		return GetResp{Val: n.vals[r.Key]}, at, nil
	case MethodPut:
		r := req.(PutReq)
		for _, e := range r.Entries {
			n.vals[e.K] = e.V
		}
		return GetResp{}, at, nil
	case "rpc.bogus": // want "matches no Method"
		return GetResp{}, at, nil
	}
	return nil, at, nil
}

// Fetch agrees with the handler on both payload types.
func (n *Node) Fetch(to simnet.Addr, at simnet.VTime) int {
	resp, _, err := n.net.Call(n.addr, to, MethodGet, GetReq{Key: 1}, at)
	if err != nil {
		return 0
	}
	return resp.(GetResp).Val
}

// FetchWrongReq sends the wrong request type.
func (n *Node) FetchWrongReq(to simnet.Addr, at simnet.VTime) {
	_, _, err := n.net.Call(n.addr, to, MethodGet, PutReq{}, at) // want "sends rpcproto.PutReq but its handler asserts rpcproto.GetReq"
	if err != nil {
		return
	}
}

// FetchWrongResp asserts the response to a type the handler never returns.
func (n *Node) FetchWrongResp(to simnet.Addr, at simnet.VTime) int {
	resp, _, err := n.net.Call(n.addr, to, MethodGet, GetReq{Key: 2}, at) // want "asserted to rpcproto.ShipChunk but its handler returns rpcproto.GetResp"
	if err != nil {
		return 0
	}
	return resp.(ShipChunk).N
}

// FetchRetriedWrongResp asserts a retried call's response to a type the
// handler never returns.
func (n *Node) FetchRetriedWrongResp(to simnet.Addr, at simnet.VTime) int {
	resp, _, err := n.net.CallRetry(n.addr, to, MethodGet, GetReq{Key: 3}, at) // want "asserted to rpcproto.ShipChunk but its handler returns rpcproto.GetResp"
	if err != nil {
		return 0
	}
	return resp.(ShipChunk).N
}

// Nudge invokes the orphaned method.
func (n *Node) Nudge(to simnet.Addr, at simnet.VTime) {
	if _, err := n.net.Send(n.addr, to, MethodOrphan, OrphanReq{N: 1}, at); err != nil {
		return
	}
}

// Ship is clean: Transfer runs no handler.
func (n *Node) Ship(to simnet.Addr, at simnet.VTime) {
	if _, err := n.net.Transfer(n.addr, to, MethodShip, ShipChunk{N: 2}, at); err != nil {
		return
	}
}

// Poke passes the method as a raw literal.
func (n *Node) Poke(to simnet.Addr, at simnet.VTime) {
	if _, err := n.net.Send(n.addr, to, "rpc.poke", simnet.Bytes(1), at); err != nil { // want "string literal"
		return
	}
}

// RouteWrongReq forwards the wrong request type along a route that ends at
// the node itself.
func (n *Node) RouteWrongReq(to simnet.Addr, at simnet.VTime) {
	if _, _, err := n.net.Forward(n.addr, to, MethodGet, PutReq{}, n.addr, at); err != nil { // want "sends rpcproto.PutReq but its handler asserts rpcproto.GetReq"
		return
	}
}
