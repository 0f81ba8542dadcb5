package experiments

import (
	"fmt"
	"math"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

// netConfig is the cost model shared by all experiments: 2 ms per hop,
// 1 MiB/s links, 500 ms failure timeout — a conservative ad-hoc wireless
// profile.
func netConfig() simnet.Config {
	return simnet.Config{
		BaseLatency: 2 * time.Millisecond,
		Bandwidth:   1 << 20,
		FailTimeout: 500 * time.Millisecond,
	}
}

// deployment bundles an overlay with the virtual clock that drives it.
// mon is non-nil when Params.Flight armed the flight recorder and the
// invariant monitors.
type deployment struct {
	sys   *overlay.System
	clock *simnet.Clock
	mon   *overlay.Monitors
}

// faultSeedBase is the seed-stream base of the fault-injection plan, kept
// distinct from every workload stream so changing the loss pattern never
// perturbs the dataset draw (and vice versa).
const faultSeedBase = 0xFA17

// buildDeployment creates a converged overlay with nIndex index nodes and
// the dataset's providers as storage nodes, publishing all triples. The
// deployment runs on the clock injected via p. Setup is always fault-free;
// when p.FaultRate is nonzero a deterministic loss plan is installed on
// the fabric afterwards, so the measured operations (and only those) run
// under message loss.
func buildDeployment(p Params, nIndex int, d *workload.Dataset) (*deployment, error) {
	sys := overlay.NewSystem(overlay.Config{Bits: 24, Replication: 2, Adaptive: p.Adaptive, Net: netConfig()})
	dep := &deployment{sys: sys, clock: simnet.NewClock(0)}
	for i := 0; i < nIndex; i++ {
		_, done, err := sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), dep.clock.Now())
		if err != nil {
			return nil, err
		}
		dep.clock.Advance(done)
	}
	dep.clock.Advance(sys.Converge(dep.clock.Now()))
	for _, name := range d.Providers() {
		_, done, err := sys.AddStorageNode(simnet.Addr(name), dep.clock.Now())
		if err != nil {
			return nil, err
		}
		dep.clock.Advance(done)
		done, err = sys.Publish(simnet.Addr(name), d.ByProvider[name], dep.clock.Now())
		if err != nil {
			return nil, err
		}
		dep.clock.Advance(done)
	}
	if p.Flight > 0 {
		// Arm after the fault-free setup so the monitored window covers
		// exactly the measured operations (the conservation baseline is the
		// message count at arm time).
		dep.mon = overlay.Arm(sys, p.Flight)
	}
	if p.FaultRate > 0 {
		sys.Net().SetFaults(&simnet.FaultPlan{
			Seed: p.seed(faultSeedBase), LossRate: p.FaultRate,
		})
	}
	return dep, nil
}

// checkMonitors runs every armed invariant monitor and returns a short
// status cell for experiment tables: "ok" when armed and clean, the
// violation count otherwise, "" when monitors are off.
func (dep *deployment) checkMonitors() string {
	if dep.mon == nil {
		return ""
	}
	vs := dep.mon.CheckAll()
	if len(vs) == 0 {
		return "ok"
	}
	return fmt.Sprintf("%d violations", len(vs))
}

// runQuery executes one query and returns its result and stats, advancing
// the deployment clock.
func (dep *deployment) runQuery(opts dqp.Options, initiator, query string) (*dqp.Result, dqp.Stats, error) {
	e := dqp.NewEngine(dep.sys, opts)
	res, stats, done, err := e.Query(simnet.Addr(initiator), query, dep.clock.Now())
	dep.clock.Advance(done)
	return res, stats, err
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// log2 is a shorthand for the hop-bound comparisons.
func log2(n int) float64 { return math.Log2(float64(n)) }
