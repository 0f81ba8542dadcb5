// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001) over the simnet fabric: consistent hashing on a
// 2^m-point identifier circle, finger tables for O(log N) lookups,
// successor lists and stabilization for churn resilience. It is the
// substrate on which the paper's index nodes self-organize into a ring
// (Sect. III-A); the two-level distributed index keys of Sect. III-B are
// Chord keys whose successor index node stores the location-table row.
package chord

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// ID is a point on the Chord identifier circle. The circle size is 2^m
// with m ≤ 64; IDs are always reduced modulo the circle size.
type ID uint64

// HashID maps an arbitrary string onto the identifier circle of the given
// bit width using SHA-1, as Chord prescribes.
func HashID(s string, bits uint) ID { return HashBytes([]byte(s), bits) }

// HashBytes is HashID over a byte slice, for callers that assemble the
// hash input in a buffer of their own.
func HashBytes(b []byte, bits uint) ID {
	sum := sha1.Sum(b)
	v := binary.BigEndian.Uint64(sum[:8])
	return ID(v).truncate(bits)
}

func (id ID) truncate(bits uint) ID {
	if bits >= 64 {
		return id
	}
	return id & ((1 << bits) - 1)
}

// add returns id + 2^k on the circle of the given width.
func (id ID) add(k uint, bits uint) ID {
	return (id + (1 << k)).truncate(bits)
}

// String renders the ID in the N<decimal> style of the paper's Fig. 1.
func (id ID) String() string { return fmt.Sprintf("N%d", uint64(id)) }

// between reports whether x lies in the open interval (a, b) on the ring.
// When a == b the interval spans the whole circle excluding a.
func between(x, a, b ID) bool {
	if a < b {
		return a < x && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a
}

// betweenRightIncl reports whether x lies in the half-open interval (a, b]
// on the ring — the successor condition. When a == b the interval is the
// whole circle.
func betweenRightIncl(x, a, b ID) bool {
	if a < b {
		return a < x && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true
}
