package main

import (
	"fmt"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

const (
	// batchTriples is the size of one publication batch.
	batchTriples = 100
	// churnNode is the index node that joins and leaves during a cycle.
	churnNode = simnet.Addr("idx-churn")
	// eventsPerCycle is the number of membership events in one cycle: join,
	// leave, join, leave, evenly spaced, so the cycle ends on the ring it
	// started on.
	eventsPerCycle = 4
)

// publishPlan is publish_churn. The providers' data is cut into batches;
// set-up publishes the first half. One op publishes the next unpublished
// batch at its provider and retracts the oldest live one, so the index
// stays at a steady size. After a whole cycle — as many ops as there are
// batches — the window is back where it started.
type publishPlan struct {
	nIndex    int
	providers []simnet.Addr
	batches   []batch
	// live is the number of batches published at any time.
	live int
	// expect is each provider's graph after set-up and after every whole
	// cycle.
	expect map[simnet.Addr][]rdf.Triple
}

// cutBatches cuts every provider's distinct triples into batches and deals
// them provider by provider, so consecutive ops write at different nodes.
func cutBatches(d *workload.Dataset) []batch {
	var perProvider [][]batch
	longest := 0
	for _, name := range d.Providers() {
		seen := map[rdf.Triple]bool{}
		var distinct []rdf.Triple
		for _, t := range d.ByProvider[name] {
			if !seen[t] {
				seen[t] = true
				distinct = append(distinct, t)
			}
		}
		var bs []batch
		for len(distinct) > 0 {
			n := min(batchTriples, len(distinct))
			bs = append(bs, batch{simnet.Addr(name), distinct[:n]})
			distinct = distinct[n:]
		}
		perProvider = append(perProvider, bs)
		longest = max(longest, len(bs))
	}
	var out []batch
	for k := 0; k < longest; k++ {
		for _, bs := range perProvider {
			if k < len(bs) {
				out = append(out, bs[k])
			}
		}
	}
	return out
}

func newPublishPlan(prof profile, d *workload.Dataset) *publishPlan {
	p := &publishPlan{
		nIndex:    prof.point.index,
		providers: providerAddrs(d),
		batches:   cutBatches(d),
		expect:    map[simnet.Addr][]rdf.Triple{},
	}
	p.live = len(p.batches) / 2
	for _, b := range p.batches[:p.live] {
		p.expect[b.provider] = append(p.expect[b.provider], b.triples...)
	}
	return p
}

func (p *publishPlan) name() string     { return wPublishChurn }
func (p *publishPlan) opsPerCycle() int { return len(p.batches) }

// cyclesRepeat is false: a cycle restores every graph and the ring, but a
// graceful leave can leave surplus posting counts behind (see coverage), so
// later cycles may cost a few bytes more than the first.
func (p *publishPlan) cyclesRepeat() bool { return false }

type publishRound struct {
	plan *publishPlan
	dep  *deployment
	// joined reports that churnNode is currently in the ring.
	joined bool
}

// begin builds the ring, attaches the providers, publishes the first half
// of the batches and ends on a maintenance round: Converge advances the
// epoch, so the first cycle starts with flushed owner caches, the state
// the membership event at the end of every cycle leaves behind.
func (p *publishPlan) begin() (round, error) {
	dep, err := buildDeployment(p.nIndex, p.providers, p.batches[:p.live])
	if err != nil {
		return nil, err
	}
	dep.now = dep.sys.Converge(dep.now)
	return &publishRound{plan: p, dep: dep}, nil
}

func (r *publishRound) deployment() *deployment { return r.dep }

// warmup has nothing to run: set-up has already exercised the write path,
// and a pass over the op list would be a whole cycle.
func (r *publishRound) warmup() (attempted, failed int) { return 0, 0 }

// membership runs the next membership event: the churn node joins (and
// pulls its slice of the location table) or leaves gracefully (handing its
// table to its successor). Both converge the ring and bump the epoch.
func (r *publishRound) membership() error {
	var err error
	if r.joined {
		r.dep.now, err = r.dep.sys.RemoveIndexGraceful(churnNode, r.dep.now)
	} else {
		_, r.dep.now, err = r.dep.sys.AddIndexNode(churnNode, r.dep.now)
	}
	if err != nil {
		return fmt.Errorf("membership event: %w", err)
	}
	r.joined = !r.joined
	return nil
}

// op returns the batches op i of a cycle publishes and retracts.
func (p *publishPlan) op(i int) (publish, retract batch) {
	return p.batches[(p.live+i)%len(p.batches)], p.batches[i]
}

// eventAfter reports whether a membership event follows op i of a cycle:
// after ops n/4, 2n/4, 3n/4 and n.
func (p *publishPlan) eventAfter(i int) bool {
	n := len(p.batches)
	return (i+1)*eventsPerCycle/n > i*eventsPerCycle/n
}

func (r *publishRound) cycle(log *cycleLog) {
	start := time.Now()
	for i := 0; i < r.plan.opsPerCycle(); i++ {
		pub, ret := r.plan.op(i)
		err := r.dep.publish(pub)
		if err == nil {
			err = r.dep.retract(ret)
		}
		log.op("op.publish_retract", start, time.Now(), err == nil)
		// Events count in the round's wall time but in no op's latency.
		if r.plan.eventAfter(i) {
			if err := r.membership(); err != nil {
				log.failed++
			}
		}
		start = time.Now()
	}
}

// finish holds the deployment to its invariants: the ring monitor is
// clean, every published (key, provider) pair is covered by a posting at
// the key's owner, and every provider's graph is exactly the live set.
func (r *publishRound) finish() (violations int, note string) {
	mon := overlay.Arm(r.dep.sys, armRing)
	violations = len(mon.CheckRing())
	if flagged := len(mon.CheckCoverage()); flagged > 0 {
		under, over := coverage(r.dep.sys)
		violations += under
		note = fmt.Sprintf("coverage monitor: %d violations, %d under-counted (failed), %d over-counted after graceful leave (known, not failed)", flagged, under, over)
	}
	for _, p := range r.plan.providers {
		node, ok := r.dep.sys.Storage(p)
		if !ok || node.Graph.Size() != len(r.plan.expect[p]) {
			violations++
			continue
		}
		for _, t := range r.plan.expect[p] {
			if !node.Graph.Has(t) {
				violations++
				break
			}
		}
	}
	return violations, note
}

// coverage recounts what Monitors.CheckCoverage checks — for every key of
// every shared triple, the posting its owner holds for the provider — and
// splits the mismatches by direction. under counts postings that are
// missing or too low: a lookup could miss a provider, which is a failure.
// over counts postings that are too high. At the commit this benchmark was
// written against, a graceful leave merges the leaver's rows into replica
// rows its successor already holds, so counts double there; queries stay
// complete (frequencies only order and size plans), so over is reported
// but not failed.
func coverage(sys *overlay.System) (under, over int) {
	bits := sys.Config().Bits
	nodes := sys.IndexNodes()
	owner := func(key chord.ID) *overlay.IndexNode {
		for _, n := range nodes {
			if n.ID() >= key {
				return n
			}
		}
		return nodes[0]
	}
	for _, sn := range sys.StorageNodes() {
		published := map[chord.ID]int{}
		for _, t := range sn.Graph.Triples() {
			for _, key := range overlay.TripleKeys(t, bits) {
				published[key]++
			}
		}
		for key, want := range published {
			got := 0
			for _, p := range owner(key).Table.Get(key) {
				if p.Node == sn.Addr() {
					got = p.Freq
				}
			}
			switch {
			case got < want:
				under++
			case got > want:
				over++
			}
		}
	}
	return under, over
}
