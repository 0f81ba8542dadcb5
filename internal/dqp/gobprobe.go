package dqp

import (
	"bytes"
	"encoding/gob"

	"adhocshare/internal/chord"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdfpeers"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
)

// The gob probe. Nothing in this repository serializes a message: the
// fabric ships Go values and charges SizeBytes, the one wire format
// (DESIGN.md §5). This file survives the deletion of the wire codec for
// its only callers: bench/layers.go's four codec.* rows, which the frozen
// benchmark compiles against, and two tests — TestMethodPayloadsRoundTrip,
// which proves every payload of the four RPC vocabularies is a plain
// serializable value (what the parked TCP transport would need first),
// and the seed corpus of FuzzCodecRoundTrip. The [benchmark] PR (ROADMAP
// item 1) deletes it together with those rows.
func init() {
	for _, v := range []any{
		simnet.Bytes(0), dispatchPayload{}, rowsPayload{}, eval.Table{},

		overlay.PutBatchReq{}, overlay.RoutedReadReq{},
		overlay.RoutedReadResp{}, overlay.PostingsResp{}, overlay.TransferReq{}, overlay.TableRows{},
		overlay.ReplicaDelta{}, overlay.StaleKeys{},
		overlay.DropNodeReq{}, overlay.MatchReq{}, overlay.MatchResp{}, overlay.ChainReq{}, overlay.SolutionsResp{},
		overlay.HotLookupReq{}, overlay.HotPostingsResp{},

		chord.Ref{}, chord.FindReq{}, chord.FindResp{},
		chord.BatchFindReq{}, chord.BatchFindResp{}, chord.RefList{}, chord.FingerReq{},

		rdfpeers.StoreReq{}, rdfpeers.MatchReq{}, rdfpeers.SolutionsResp{},
		rdfpeers.IntersectReq{}, rdfpeers.TermsResp{}, rdfpeers.RangeReq{},
		rdfpeers.RangeResp{}, rdfpeers.TriplesPayload{},

		// MatchUnit carries a pushed-down FILTER as a sparql.Expression
		// interface value.
		&sparql.ExprVar{}, &sparql.ExprTerm{}, &sparql.ExprOr{},
		&sparql.ExprAnd{}, &sparql.ExprNot{}, &sparql.ExprNeg{},
		&sparql.ExprCmp{}, &sparql.ExprArith{}, &sparql.ExprCall{},
	} {
		gob.Register(v)
	}
}

// EncodePayload serializes an RPC payload with gob; the concrete type
// travels in gob's own preamble, so DecodePayload needs no hint.
func EncodePayload(p simnet.Payload) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload.
func DecodePayload(data []byte) (simnet.Payload, error) {
	var p simnet.Payload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, err
	}
	return p, nil
}
