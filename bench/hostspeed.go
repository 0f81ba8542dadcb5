package main

import (
	"slices"
	"strconv"
	"time"
)

// The host this benchmark was written on — a two-core VM on a shared
// machine — changes speed under it: the same binary on the same inputs runs
// anywhere between 1× and 2.2× as long, in spells of seconds to minutes,
// and process CPU time moves with wall time (it is not stolen time). No
// statistic over the rounds of a run recovers from a spell that outlasts
// the run. So the three host-time metrics are taken as ratios measured in
// the same process (ROADMAP item 1): a fixed piece of reference work runs
// interleaved with the workload — after set-up and after every cycle, a
// quarter as long — and set-up time, cycle times and op latencies are
// scaled by how fast the reference ran relative to nominalHostSpeed. On a
// host at nominal speed nothing changes. Over eight runs of one seed the
// correction took the spread of ops_per_s from 10.8% to 3.6% on
// point_lookup, from 16.8% to 7.6% on join_mix and from 22.8% to 7.0% on
// publish_churn (README.md has the other metrics).

// nominalHostSpeed is the reference speed, in units per second, of the
// host the benchmark was written on in its usual state.
const nominalHostSpeed = 100.0

// referenceShare is the host time the reference runs after each piece of
// workload, as a share of that piece's own time.
const referenceShare = 4

// hostProbe is the reference work: scrambled lookups in a map of 65536
// IRI-like strings and a sort of as many integers. It uses only the
// standard library, so no change to the repository can make it faster; it
// is bound by memory and caches, as the system under test is; and it
// allocates nothing, so it neither shows in the allocation metrics nor
// triggers a collection whose cost would depend on the workload's heap.
type hostProbe struct {
	keys       []string
	index      map[string]int32
	order, buf []int32
	sink       int32
}

func newHostProbe() *hostProbe {
	const n = 1 << 16
	p := &hostProbe{index: make(map[string]int32, n), order: make([]int32, n), buf: make([]int32, n)}
	for i := 0; i < n; i++ {
		k := "http://example.org/people/p" + strconv.Itoa(i)
		p.keys = append(p.keys, k)
		p.index[k] = int32(i)
		p.order[i] = int32(i * 40503 % n)
	}
	return p
}

// unit does one unit of reference work.
func (p *hostProbe) unit() {
	for _, j := range p.order {
		p.sink += p.index[p.keys[j]]
	}
	copy(p.buf, p.order)
	slices.Sort(p.buf)
}

// hostSpeed accumulates reference work: units done and the host time they
// took.
type hostSpeed struct {
	units int
	spent time.Duration
}

// after runs the reference for a share of d — the host time the workload
// just used — and at least one unit.
func (h *hostSpeed) after(p *hostProbe, d time.Duration) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d/referenceShare; n++ {
		p.unit()
		h.units++
	}
	h.spent += time.Since(start)
}

// relative is the measured speed as a share of the nominal: 0.5 for a host
// running at half speed.
func (h hostSpeed) relative() float64 {
	return float64(h.units) / h.spent.Seconds() / nominalHostSpeed
}
