package dqp

import (
	"reflect"
	"testing"

	"adhocshare/internal/simnet"
)

// FuzzCodecRoundTrip holds the gob probe's DecodePayload to two
// properties on its seed corpus: malformed input errors instead of
// panicking, and a payload that decodes survives a re-encode unchanged.
// Seeds are both payloads of every RPC method in methodSamples, each whole,
// cut in half and cut one byte short (a final field that ends mid-value),
// plus the committed byte strings under
// testdata/fuzz/FuzzCodecRoundTrip. It runs as a plain test only — `make
// fuzz` would be fuzzing encoding/gob — and goes with gobprobe.go.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, c := range methodSamples() {
		for _, p := range []simnet.Payload{c.req, c.resp} {
			data, err := EncodePayload(p)
			if err != nil {
				f.Fatalf("%s: encode: %v", c.method, err)
			}
			f.Add(data)
			f.Add(data[:len(data)/2])
			f.Add(data[:len(data)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return // malformed input: rejected, not crashed
		}
		again, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("re-encode of decoded payload %#v: %v", p, err)
		}
		p2, err := DecodePayload(again)
		if err != nil {
			t.Fatalf("decode of re-encoded payload %#v: %v", p, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the payload:\n was: %#v\n got: %#v", p, p2)
		}
	})
}
