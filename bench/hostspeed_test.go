package main

import (
	"slices"
	"testing"
)

// TestHostProbeAllocatesNothing guards the property the correction rests
// on: the reference work runs inside the timed window, so it must not show
// in the allocation metrics or start a collection.
func TestHostProbeAllocatesNothing(t *testing.T) {
	p := newHostProbe()
	if allocs := testing.AllocsPerRun(5, p.unit); allocs != 0 {
		t.Errorf("one unit of reference work allocates %v times", allocs)
	}
	if !slices.IsSorted(p.buf) {
		t.Error("the reference work did not sort")
	}
}
