package dqp

import (
	"testing"
)

// Allocation guards for the wire codec. Every payload of the four RPC
// vocabularies is encoded and decoded under testing.AllocsPerRun:
//
//   - binary-coded payloads must stay reflection-free — a tight absolute
//     ceiling on encode (the presized destination buffer) and a strict
//     "cheaper than gob" bound on both directions, measured against the
//     gob baseline in the same run;
//   - gob-fallback payloads are pinned at their current allocation counts
//     with headroom, so a regression that drags a hot type back onto the
//     reflection path (or makes the fallback sharply worse) fails here
//     before it shows up in the benchmark's codec.* rows (bench/).
const (
	// maxBinaryEncodeAllocs: the destination buffer (1 alloc,
	// presized from SizeBytes) plus at most one growth step when a
	// payload's SizeBytes underestimates its wire form.
	maxBinaryEncodeAllocs = 2
	// maxGobAllocs bounds the reflection fallback; the worst current
	// payload (chainPayload carrying a pushed-down filter expression
	// tree) sits around 470 allocs for encode+decode.
	maxGobAllocs = 600
)

func measureAllocs(t *testing.T, label string, f func()) float64 {
	t.Helper()
	f() // warm gob's type registry and any lazy tables before counting
	return testing.AllocsPerRun(200, f)
}

func TestCodecAllocGuards(t *testing.T) {
	for _, s := range samplePayloads() {
		s := s
		p := s.p
		_, binary := binaryTag(p)

		encBin := measureAllocs(t, s.label, func() {
			if _, err := EncodePayload(p); err != nil {
				t.Fatalf("%s: encode: %v", s.label, err)
			}
		})
		encGob := measureAllocs(t, s.label, func() {
			if _, err := EncodePayloadGob(p); err != nil {
				t.Fatalf("%s: gob encode: %v", s.label, err)
			}
		})
		binData, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.label, err)
		}
		gobData, err := EncodePayloadGob(p)
		if err != nil {
			t.Fatalf("%s: gob encode: %v", s.label, err)
		}
		decBin := measureAllocs(t, s.label, func() {
			if _, err := DecodePayload(binData); err != nil {
				t.Fatalf("%s: decode: %v", s.label, err)
			}
		})
		decGob := measureAllocs(t, s.label, func() {
			if _, err := DecodePayload(gobData); err != nil {
				t.Fatalf("%s: gob decode: %v", s.label, err)
			}
		})

		if binary {
			if encBin > maxBinaryEncodeAllocs {
				t.Errorf("%s: binary encode costs %.0f allocs/op, want <= %d", s.label, encBin, maxBinaryEncodeAllocs)
			}
			if encBin >= encGob {
				t.Errorf("%s: binary encode costs %.0f allocs/op, not cheaper than gob's %.0f", s.label, encBin, encGob)
			}
			if decBin >= decGob {
				t.Errorf("%s: binary decode costs %.0f allocs/op, not cheaper than gob's %.0f", s.label, decBin, decGob)
			}
		} else {
			if encBin != encGob {
				t.Errorf("%s: has no binary codec but EncodePayload (%.0f allocs) differs from gob (%.0f)", s.label, encBin, encGob)
			}
		}
		if encGob+decGob > maxGobAllocs {
			t.Errorf("%s: gob round trip costs %.0f allocs/op, want <= %d", s.label, encGob+decGob, maxGobAllocs)
		}
		t.Logf("%-40s binary=%v enc=%3.0f/%3.0f dec=%3.0f/%3.0f (binary/gob allocs)", s.label, binary, encBin, encGob, decBin, decGob)
	}
}

// TestCodecAllocGuardCoversAllRegistered cross-checks the guard's sample
// table against the codec dispatch itself: every binary tag must be hit
// by at least one sample, so a new hot payload cannot ship without an
// allocation guard.
func TestCodecAllocGuardCoversAllRegistered(t *testing.T) {
	covered := map[byte]bool{}
	for _, s := range samplePayloads() {
		if tag, ok := binaryTag(s.p); ok {
			covered[tag] = true
		}
	}
	for tag := tagBytes; tag <= tagTriplesResp; tag++ {
		if !covered[tag] {
			t.Errorf("binary tag %d has no sample payload in methodSamples; add one so the alloc guard covers it", tag)
		}
	}
}
