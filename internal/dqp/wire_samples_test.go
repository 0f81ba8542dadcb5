package dqp

import (
	"reflect"
	"testing"

	"adhocshare/internal/chord"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/rdfpeers"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/testutil"
	"adhocshare/internal/trace"
)

// methodSample is one wire method with representative non-empty request
// and response payloads, the table TestMethodPayloadsRoundTrip and
// TestEveryPayloadMatchesReferenceEncoder walk.
type methodSample struct {
	method    string
	req, resp simnet.Payload
}

// methodSamples covers every Method* constant of the three RPC
// vocabularies (overlay, chord, rdfpeers). Fire-and-forget handlers ack
// with simnet.Bytes, which must round-trip like any payload.
func methodSamples() []methodSample {
	triple := rdf.NewTriple(
		rdf.NewIRI("urn:s"),
		rdf.NewIRI("urn:p"),
		rdf.NewTypedLiteral("12", "http://www.w3.org/2001/XMLSchema#integer"),
	)
	pattern := rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("urn:p"), rdf.NewVar("o"))
	sols := eval.Solutions{
		eval.Binding{"s": rdf.NewIRI("urn:s"), "o": rdf.NewLangLiteral("hi", "en")},
	}
	filter := &sparql.ExprCmp{
		Op:    sparql.CmpGt,
		Left:  &sparql.ExprVar{Name: "o"},
		Right: &sparql.ExprTerm{Term: rdf.NewTypedLiteral("3", "http://www.w3.org/2001/XMLSchema#integer")},
	}
	rows := overlay.TableRows{Rows: map[chord.ID][]overlay.Posting{
		7: {{Node: "n3", Freq: 2}},
	}}
	keys := eval.TableOf([]string{"s"}, []rdf.Term{rdf.NewIRI("urn:s")})
	matches := eval.TableOf([]string{"s", "o"}, []rdf.Term{rdf.NewIRI("urn:s"), rdf.NewLangLiteral("hi", "en")})
	matchReq := overlay.MatchReq{
		Units:     []overlay.MatchUnit{{Pattern: pattern, Filter: filter, Keys: keys, Graph: rdf.NewIRI("urn:g1")}},
		Dataset:   []string{"urn:g1"},
		FromNamed: []string{"urn:g2"},
	}
	// A wave's request: three patterns of a query's BGPs for one target,
	// under two GRAPH scopes, each under the unit key, answered with one
	// table per unit.
	waveReq := matchReq
	waveReq.Units = []overlay.MatchUnit{
		{Pattern: pattern, Filter: filter, Keys: eval.Table{N: 1}, Graph: rdf.NewIRI("urn:g1")},
		{Pattern: rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("urn:q"), rdf.NewIRI("urn:s")), Keys: eval.Table{N: 1}, Graph: rdf.NewIRI("urn:g1")},
		{Pattern: rdf.NewTriple(rdf.NewVar("o"), rdf.NewIRI("urn:p"), rdf.NewVar("t")), Keys: eval.Table{N: 1}, Graph: rdf.NewVar("g")},
	}
	waveResp := overlay.MatchResp{Tables: []eval.Table{matches,
		eval.TableOf([]string{"s"}, []rdf.Term{rdf.NewIRI("urn:s")}), {Vars: []string{"o", "t"}}}}
	result := rowsPayload{Rows: eval.TableOf([]string{"s", "o"},
		[]rdf.Term{rdf.NewIRI("urn:s"), {}, rdf.NewIRI("urn:t"), rdf.NewLiteral("o")})}
	ref := chord.Ref{ID: 42, Addr: "c2"}
	ack := simnet.Bytes(1)

	return []methodSample{
		// Overlay index-node methods.
		{overlay.MethodPutBatch, overlay.PutBatchReq{
			Node:     "n1",
			Entries:  []overlay.KeyFreq{{Key: 4, Freq: 2}},
			Absolute: true,
		}, ack},
		// A routed read: a hop's forward of two keys, the hand-on to their
		// owner, and the owner's reply to the origin.
		{overlay.MethodRoutedRead, overlay.RoutedReadReq{Keys: []chord.ID{4, 7}, Origin: "s1", Epoch: 3, Hops: 2},
			overlay.RoutedReadResp{Keys: []chord.ID{4, 7}, Rows: []overlay.PostingsResp{
				{Postings: []overlay.Posting{{Node: "n2", Freq: 5}}, Replicas: []simnet.Addr{"n3", "n4"}, Epoch: 3},
				{Postings: []overlay.Posting{{Node: "n5", Freq: 1}}},
			}, Hops: 2, Owner: "n2"}},
		{overlay.MethodRoutedRead, overlay.RoutedReadReq{Keys: []chord.ID{4}, Origin: "s1", Hops: 1, Owned: true},
			overlay.RoutedReadResp{Keys: []chord.ID{4}, Rows: []overlay.PostingsResp{
				{Postings: []overlay.Posting{{Node: "n2", Freq: 5}}},
			}, Hops: 1, Owner: "n2"}},
		// An adaptive hot read, checked against the digest of the owner's
		// row: a hit, and a miss where the node's row has another digest.
		{overlay.MethodHotLookup, overlay.HotLookupReq{Key: 4, Digest: 0x9e3779b9,
			TC: trace.TraceContext{Query: 7, Span: 10, Parent: 1}},
			overlay.HotPostingsResp{Hit: true, Postings: []overlay.Posting{{Node: "n2", Freq: 5}}}},
		{overlay.MethodHotLookup, overlay.HotLookupReq{Key: 4, Digest: 0x7f4a7c15}, overlay.HotPostingsResp{}},
		{overlay.MethodTransfer, overlay.TransferReq{From: 1, To: 9}, rows},
		{overlay.MethodHandover, rows, ack},
		{overlay.MethodDropNode, overlay.DropNodeReq{Node: "n4", Propagate: true}, ack},
		// Write chain: a delta travels one link down the owner's chain, or
		// reaches its tail (no holders left), and comes back as the tail's
		// one-byte acknowledgement; a holder whose digests disagree pulls
		// the stale rows whole from the link before it.
		{overlay.MethodReplica, overlay.ReplicaDelta{Node: "n3", From: "n2", Entries: []overlay.DeltaEntry{
			{Key: 7, Freq: 2, Digest: 0x9e3779b9}, {Key: 4, Freq: 0, Digest: 0x811c9dc5},
		}, Left: 1, TC: trace.TraceContext{Query: 7, Span: 11, Parent: 1}}, ack},
		{overlay.MethodReplica, overlay.ReplicaDelta{Node: "n3", From: "n4", Entries: []overlay.DeltaEntry{
			{Key: 7, Freq: 2, Digest: 0x9e3779b9},
		}}, ack},
		{overlay.MethodReplicaRepair, overlay.StaleKeys{Keys: []chord.ID{7}}, rows},

		// Overlay storage-node methods.
		{overlay.MethodMatch, matchReq, overlay.MatchResp{Tables: []eval.Table{matches}}},
		{overlay.MethodMatch, waveReq, waveResp},
		{overlay.MethodChainHop, overlay.ChainReq{Sub: matchReq, Acc: matches, Seq: []simnet.Addr{"n5", "n6"}}, matches},

		// Chord ring maintenance.
		{chord.MethodFindSuccessor, chord.FindReq{Target: 5, Hops: 1},
			chord.FindResp{Node: ref, Hops: 2}},
		{chord.MethodFindSuccessorBatch, chord.BatchFindReq{Targets: []chord.ID{5, 9}, Hops: 1},
			chord.BatchFindResp{Nodes: []chord.Ref{ref, {ID: 51, Addr: "c3"}}, Arcs: []chord.Arc{{Start: 48, Owner: ref}}, Hops: 3}},
		{chord.MethodGetPredecessor, ack, ref},
		{chord.MethodGetSuccList, ack, chord.RefList{Refs: []chord.Ref{ref}}},
		{chord.MethodNotify, ref, ack},
		{chord.MethodPing, ack, ack},
		{chord.MethodSetPredecessor, ref, ack},
		{chord.MethodSetSuccessor, ref, ack},
		{chord.MethodUpdateFinger, chord.FingerReq{From: 1, To: 9, Owner: ref, K: 3}, ref},

		// DQP data legs: the receiver takes over what was delivered and
		// hands it back. dqp.ship and dqp.result carry a Table, its
		// OPTIONAL variables unbound in some rows.
		{overlay.MethodDispatch, dispatchPayload{Sub: matchReq, Rows: matches}, dispatchPayload{Sub: matchReq, Rows: matches}},
		{overlay.MethodShip, rowsPayload{Rows: matches}, rowsPayload{Rows: matches}},
		{overlay.MethodResult, result, result},

		// RDFPeers baseline.
		{rdfpeers.MethodStore, rdfpeers.StoreReq{Triple: triple}, ack},
		{rdfpeers.MethodMatch, rdfpeers.MatchReq{Pattern: pattern},
			rdfpeers.SolutionsResp{Sols: sols}},
		{rdfpeers.MethodIntersect, rdfpeers.IntersectReq{
			Pattern:    pattern,
			Candidates: []rdf.Term{rdf.NewIRI("urn:s")},
		}, rdfpeers.TermsResp{Terms: []rdf.Term{rdf.NewIRI("urn:s")}}},
		{rdfpeers.MethodRange, rdfpeers.RangeReq{Predicate: rdf.NewIRI("urn:p"), Lo: 1, Hi: 9},
			rdfpeers.RangeResp{Triples: []rdf.Triple{triple}}},
		// Results travel back to the initiator as candidate terms (MAQ) or
		// triples (range queries), which it takes over and hands back.
		{rdfpeers.MethodResult, rdfpeers.TermsResp{Terms: []rdf.Term{rdf.NewIRI("urn:s")}},
			rdfpeers.TermsResp{Terms: []rdf.Term{rdf.NewIRI("urn:s")}}},
		{rdfpeers.MethodResult, rdfpeers.TriplesPayload{Triples: []rdf.Triple{triple}},
			rdfpeers.TriplesPayload{Triples: []rdf.Triple{triple}}},
	}
}

// filled returns a value of type t with every field set non-zero, by
// reflection: strings "x", numbers 3, booleans true, one element in every
// slice and map. A table, a solution multiset and an expression, whose
// parts must agree, are taken from leaves.
func filled(t reflect.Type, leaves map[reflect.Type]any) reflect.Value {
	if leaf, ok := leaves[t]; ok {
		return reflect.ValueOf(leaf)
	}
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Int, reflect.Int32:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(3)
	case reflect.Pointer:
		v.Set(filled(t.Elem(), leaves).Addr())
	case reflect.Slice:
		v.Set(reflect.Append(v, filled(t.Elem(), leaves)))
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		v.SetMapIndex(filled(t.Key(), leaves), filled(t.Elem(), leaves))
	case reflect.Struct:
		for i := range t.NumField() {
			v.Field(i).Set(filled(t.Field(i).Type, leaves))
		}
	default:
		panic("filled: no rule for a " + t.String())
	}
	return v
}

// TestEveryPayloadMatchesReferenceEncoder: every methodSamples payload, a
// value of each of their types with every field set non-zero, a put_batch
// request by pointer as shipBatch sends it, an empty overlay.SolutionsResp
// and the replies a routed read split at its first hop hands back are each
// charged what the reference encoder (testutil.Encode) writes for them;
// and every entry of the encoder's shape table is used, so a stale one
// cannot linger.
func TestEveryPayloadMatchesReferenceEncoder(t *testing.T) {
	leaves := map[reflect.Type]any{
		reflect.TypeFor[eval.Table]():        eval.TableOf([]string{"s", "o"}, []rdf.Term{rdf.NewIRI("urn:s"), {}, rdf.NewIRI("urn:s"), rdf.NewLiteral("o")}),
		reflect.TypeFor[eval.Solutions]():    eval.Solutions{{"s": rdf.NewIRI("urn:s")}, {"s": rdf.NewIRI("urn:t"), "o": rdf.NewLiteral("o")}},
		reflect.TypeFor[sparql.Expression](): &sparql.ExprCall{Name: "BOUND", Args: []sparql.Expression{&sparql.ExprVar{Name: "o"}}},
	}
	payloads := []simnet.Payload{
		&overlay.PutBatchReq{Node: "D1", Entries: []overlay.KeyFreq{{Key: 1, Freq: 1}}, Seq: 2},
		overlay.SolutionsResp{},
	}
	for _, c := range methodSamples() {
		payloads = append(payloads, c.req, c.resp)
	}
	types := map[reflect.Type]bool{}
	for _, p := range payloads {
		if ty := reflect.TypeOf(p); !types[ty] {
			types[ty] = true
			payloads = append(payloads, filled(ty, leaves).Interface().(simnet.Payload))
		}
	}
	sys, now := buildSystem(t, 4, paperData())
	var keys []chord.ID
	for i := range 32 {
		keys = append(keys, chord.ID(i)<<11)
	}
	read := overlay.RoutedReadReq{Keys: keys, Origin: sys.StorageNodes()[0].Addr(), Epoch: 3}
	split, _, err := sys.IndexNodes()[0].HandleCall(now, overlay.MethodRoutedRead, read)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(payloads, read, split) {
		if err := testutil.CheckWire(p); err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d payloads of %d types", len(payloads)+2, len(types)+1)
	if unused := testutil.UnusedShapes(); len(unused) > 0 {
		t.Errorf("shape-table entries no payload used: %v", unused)
	}
}
