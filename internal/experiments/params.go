package experiments

import "math/rand"

// Params carries the reproducibility knobs of one experiment run. Every
// experiment draws its randomness and virtual time exclusively from here,
// so identical Params always regenerate identical tables.
//
// Seed is XORed into each experiment's internal stream seeds: Seed 0
// reproduces the published EXPERIMENTS.md tables bit-for-bit, and any
// other value yields a complete, equally deterministic re-run over a
// different dataset draw.
//
// FaultRate, when nonzero, installs a deterministic fault-injection plan
// (simnet.FaultPlan) on the deployment fabric after the overlay has
// converged and published: every subsequent message leg is dropped with
// this probability, decided by hashing the leg's coordinates under the
// run's seed. Setup stays fault-free so every rate sees the identical
// deployment; only the measured operations run under loss, and the same
// (Seed, FaultRate) pair always reproduces the same losses.
//
// Adaptive turns on workload-adaptive hot-key replication
// (overlay.Config.Adaptive) for the deployments an experiment builds; the
// default keeps the paper's static two-level index.
//
// Flight, when nonzero, arms the flight recorder and the live invariant
// monitors on the deployments an experiment builds, with Flight events
// retained per node. Recording is strictly observational — tables,
// traffic and VTimes are byte-identical with the knob off — and same-seed
// runs retain byte-identical event logs.
type Params struct {
	Seed      int64
	FaultRate float64
	Adaptive  bool
	Flight    int
}

// seed derives the effective seed of one named stream: the stream's fixed
// base seed perturbed by the run's master seed.
func (p Params) seed(base int64) int64 { return base ^ p.Seed }

// Rand builds an independent deterministic random stream for one purpose.
func (p Params) Rand(base int64) *rand.Rand {
	return rand.New(rand.NewSource(p.seed(base)))
}
