package dqp

import (
	"fmt"
	"reflect"
	"testing"

	"adhocshare/internal/simnet"
)

func roundTrip(t *testing.T, label string, p simnet.Payload) {
	t.Helper()
	data, err := EncodePayload(p)
	if err != nil {
		t.Errorf("%s: encode: %v", label, err)
		return
	}
	got, err := DecodePayload(data)
	if err != nil {
		t.Errorf("%s: decode: %v", label, err)
		return
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("%s: round trip changed the payload:\n sent: %#v\n got:  %#v", label, p, got)
	}
	if got.SizeBytes() != p.SizeBytes() {
		t.Errorf("%s: SizeBytes changed across the wire: %d -> %d", label, p.SizeBytes(), got.SizeBytes())
	}
}

// TestMethodPayloadsRoundTrip drives every Method* constant of the four
// RPC vocabularies through the gob probe with the representative payloads
// of methodSamples: every payload is a plain serializable value.
func TestMethodPayloadsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range methodSamples() {
		sample := fmt.Sprintf("%s %#v", c.method, c.req)
		if seen[sample] {
			t.Errorf("method %q: the same sample appears twice in the table", c.method)
		}
		seen[sample] = true
		roundTrip(t, c.method+" request", c.req)
		roundTrip(t, c.method+" response", c.resp)
	}
}
