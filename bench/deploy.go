package main

import (
	"fmt"
	"time"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

// sizing is one deployment shape.
type sizing struct {
	persons, providers, index int
}

// profile scales a run. The full profile is the benchmark; the smoke
// profile (-smoke, and the package's own tests) runs the same code on
// deployments a tenth the size for one round, to prove the plumbing.
type profile struct {
	rounds int
	// point and join are the two deployment shapes; publish_churn uses
	// point's.
	point, join sizing
	// pointCycleOps is the length of point_lookup's fixed op list.
	pointCycleOps int
	// microScale divides the fixed iteration counts of the micro rows.
	microScale int
}

var fullProfile = profile{
	rounds:        5,
	point:         sizing{persons: 5000, providers: 40, index: 32},
	join:          sizing{persons: 1000, providers: 20, index: 16},
	pointCycleOps: 4000,
	microScale:    1,
}

var smokeProfile = profile{
	rounds:        1,
	point:         sizing{persons: 500, providers: 40, index: 32},
	join:          sizing{persons: 100, providers: 20, index: 16},
	pointCycleOps: 400,
	microScale:    50,
}

// generate draws the FOAF dataset of one deployment shape. Person i is the
// i-th most popular knows-target under every seed, so the seed changes the
// sampled edges, not the shape of the popularity curve.
func generate(sz sizing, seed int64) *workload.Dataset {
	return workload.Generate(workload.Config{
		Persons: sz.persons, Providers: sz.providers, AvgKnows: 4,
		ZipfS: 1.3, KnowsNothingFraction: 0.3, Seed: seed,
	})
}

// netConfig is the cost model of every deployment: 2 ms per hop, 1 MiB/s
// links, 500 ms failure timeout (the profile the experiments use).
func netConfig() simnet.Config {
	return simnet.Config{
		BaseLatency: 2 * time.Millisecond,
		Bandwidth:   1 << 20,
		FailTimeout: 500 * time.Millisecond,
	}
}

// batch is a set of triples published (or retracted) at one provider in
// one call.
type batch struct {
	provider simnet.Addr
	triples  []rdf.Triple
}

// wholeProviders is the initial publication of the read workloads: every
// provider shares all of its triples in one call.
func wholeProviders(d *workload.Dataset) []batch {
	out := make([]batch, 0, len(d.ByProvider))
	for _, name := range d.Providers() {
		out = append(out, batch{simnet.Addr(name), d.ByProvider[name]})
	}
	return out
}

func providerAddrs(d *workload.Dataset) []simnet.Addr {
	names := d.Providers()
	out := make([]simnet.Addr, len(names))
	for i, n := range names {
		out[i] = simnet.Addr(n)
	}
	return out
}

// deployment is one overlay with its virtual clock. Ops run back to back
// from one client: each starts at the virtual time the previous one
// completed.
type deployment struct {
	sys *overlay.System
	now simnet.VTime
	// ringBuild is the host time of the index-ring build inside setup.
	ringBuild time.Duration
}

// buildDeployment builds the ring of nIndex index nodes, attaches the
// providers and publishes the initial batches in order. The defaults users
// run: static index (Adaptive off), parallel publication.
func buildDeployment(nIndex int, providers []simnet.Addr, initial []batch) (*deployment, error) {
	dep := &deployment{sys: overlay.NewSystem(overlay.Config{Bits: 24, Replication: 2, Net: netConfig()})}
	start := time.Now()
	for i := 0; i < nIndex; i++ {
		_, done, err := dep.sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), dep.now)
		if err != nil {
			return nil, fmt.Errorf("add index node %d: %w", i, err)
		}
		dep.now = done
	}
	dep.now = dep.sys.Converge(dep.now)
	dep.ringBuild = time.Since(start)
	for _, p := range providers {
		_, done, err := dep.sys.AddStorageNode(p, dep.now)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", p, err)
		}
		dep.now = done
	}
	for _, b := range initial {
		if err := dep.publish(b); err != nil {
			return nil, err
		}
	}
	return dep, nil
}

func (dep *deployment) publish(b batch) error {
	done, err := dep.sys.Publish(b.provider, b.triples, dep.now)
	dep.now = done
	if err != nil {
		return fmt.Errorf("publish at %s: %w", b.provider, err)
	}
	return nil
}

func (dep *deployment) retract(b batch) error {
	done, err := dep.sys.Retract(b.provider, b.triples, dep.now)
	dep.now = done
	if err != nil {
		return fmt.Errorf("retract at %s: %w", b.provider, err)
	}
	return nil
}
