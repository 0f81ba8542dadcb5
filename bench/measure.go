package main

import (
	"fmt"
	"runtime"
	"time"

	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// plan is a workload prepared once per run from the seed: dataset, fixed
// op list and oracle answers. The system under test sees only those
// generated inputs.
type plan interface {
	name() string
	// opsPerCycle is the length of the fixed op list.
	opsPerCycle() int
	// cyclesRepeat reports that a cycle leaves the deployment as it found
	// it, so every cycle must cost exactly the same virtual messages, bytes
	// and time as the first (the read workloads).
	cyclesRepeat() bool
	// begin builds the fresh deployment of one round. Its host time is the
	// round's setup_s.
	begin() (round, error)
}

// round is one deployment in use by one closed-loop client.
type round interface {
	deployment() *deployment
	// warmup runs every distinct op once, untimed, and holds each answer to
	// the oracle as a solution multiset.
	warmup() (attempted, failed int)
	// cycle runs the fixed op list once.
	cycle(log *cycleLog)
	// finish runs the untimed end-of-round checks and returns the number of
	// violations, and a note when it saw something worth reporting that is
	// not a failure.
	finish() (violations int, note string)
}

// cycleLog collects what the timed ops of a round report.
type cycleLog struct {
	// lat holds one host latency per op, in ms.
	lat         []float64
	ops, failed int
	// tr is set in the traced run: every op also leaves a host span.
	tr *tracer
}

// op records one completed op; ok is false when it returned an error, a
// typed partial failure or an answer that differs from the oracle's.
func (c *cycleLog) op(name string, start, end time.Time, ok bool) {
	c.lat = append(c.lat, float64(end.Sub(start))/float64(time.Millisecond))
	c.ops++
	if !ok {
		c.failed++
	}
	if c.tr != nil {
		c.tr.add(name, c.ops, start, end)
	}
}

// virtual is the virtual-clock cost of one pass over the fixed op list:
// exact and deterministic, unlike everything read from the host clock.
type virtual struct {
	msgs, bytes int64
	vtime       simnet.VTime
}

func (d *deployment) virtualNow() virtual {
	m := d.sys.Net().Metrics()
	return virtual{msgs: m.Messages, bytes: m.Bytes, vtime: d.now}
}

func (v virtual) sub(earlier virtual) virtual {
	return virtual{v.msgs - earlier.msgs, v.bytes - earlier.bytes, v.vtime - earlier.vtime}
}

// roundResult is the measurement of one round. Its host times — setupS,
// wallS, cycleS and lat — are corrected to the nominal host: scaled by
// hostSpeed, the speed the host ran the reference work at during the round
// relative to nominalHostSpeed (see hostspeed.go).
type roundResult struct {
	hostSpeed   float64
	setupS      float64
	ringBuildMs float64
	liveHeapMiB float64
	// wallS is the host time of the round's cycles, which hold ops ops, and
	// cycleS that of each cycle; windowS is the uncorrected length of the
	// whole timed window, reference work included.
	wallS, windowS float64
	cycleS         []float64
	ops            int
	lat            []float64
	// mallocs, allocBytes, gcCycles and gcPauseS are MemStats deltas over
	// the timed window.
	mallocs, allocBytes float64
	gcCycles, gcPauseS  float64
	// first is the virtual cost of the first cycle; drifted reports that a
	// later cycle cost something else.
	first   virtual
	drifted bool
	// attempted and failed count warm-up ops, timed ops and end-of-round
	// violations; note is what the end-of-round checks remarked.
	attempted, failed int
	note              string
}

// heapAfterGC forces a collection and returns the live heap in bytes.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measureRound runs one round of a workload: fresh deployment (timed as
// set-up), warm-up, forced GC, then the fixed op list over and over until
// the budget is spent — always whole cycles and at least one, so the
// virtual metrics, taken from the first cycle, are the same however fast
// the host is. Reference work follows set-up and every cycle, to correct
// the host times for the speed of the host. With tr set the round runs
// traced: a span buffer on the fabric for the virtual clock and one host
// span per op.
func measureRound(p plan, budget time.Duration, probe *hostProbe, tr *tracer) (roundResult, error) {
	var res roundResult
	var speed hostSpeed
	base := heapAfterGC()
	start := time.Now()
	rd, err := p.begin()
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", p.name(), err)
	}
	setup := time.Since(start)
	speed.after(probe, setup)
	dep := rd.deployment()
	res.ringBuildMs = float64(dep.ringBuild) / float64(time.Millisecond)
	var buf *trace.Buffer
	if tr != nil {
		buf = trace.NewBuffer()
		net := dep.sys.Net()
		net.SetRecorder(trace.Tee(net.Recorder(), buf))
	}
	res.attempted, res.failed = rd.warmup()
	res.liveHeapMiB = (heapAfterGC() - base) / (1 << 20)

	log := cycleLog{lat: make([]float64, 0, 4*p.opsPerCycle()), tr: tr}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timed := time.Now()
	for cycles := 0; cycles == 0 || time.Since(timed) < budget; cycles++ {
		v0 := dep.virtualNow()
		began := time.Now()
		rd.cycle(&log)
		took := time.Since(began)
		res.cycleS = append(res.cycleS, took.Seconds())
		v := dep.virtualNow().sub(v0)
		if cycles == 0 {
			res.first = v
		} else if v != res.first {
			res.drifted = true
		}
		if buf != nil {
			tr.keepVirtual(p.name(), buf)
			buf.Reset()
		}
		speed.after(probe, took)
	}
	res.windowS = time.Since(timed).Seconds()
	runtime.ReadMemStats(&after)
	res.ops, res.lat = log.ops, log.lat
	res.mallocs = float64(after.Mallocs - before.Mallocs)
	res.allocBytes = float64(after.TotalAlloc - before.TotalAlloc)
	res.gcCycles = float64(after.NumGC - before.NumGC)
	res.gcPauseS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	violations, note := rd.finish()
	res.attempted += log.ops
	res.failed += log.failed + violations
	res.note = note

	res.hostSpeed = speed.relative()
	res.setupS = setup.Seconds() * res.hostSpeed
	for i := range res.cycleS {
		res.cycleS[i] *= res.hostSpeed
	}
	res.wallS = sum(res.cycleS)
	for i := range res.lat {
		res.lat[i] *= res.hostSpeed
	}
	return res, nil
}

// workloadResult is every round of one workload in one run.
type workloadResult struct {
	name string
	// cycle is the length of the fixed op list; repeats reports that every
	// cycle must cost the same on the virtual clock.
	cycle   int
	repeats bool
	rounds  []roundResult
}

// correct reports that nothing failed and the virtual clock repeated: the
// first cycle cost the same in every round and, on the workloads whose
// cycles repeat, every later cycle cost the same as the first.
func (w *workloadResult) correct() bool {
	for _, r := range w.rounds {
		if r.failed > 0 || r.first != w.rounds[0].first || (w.repeats && r.drifted) {
			return false
		}
	}
	return len(w.rounds) > 0
}

func (w *workloadResult) counts() (attempted, failed int) {
	for _, r := range w.rounds {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// perRound maps every round to one number.
func (w *workloadResult) perRound(f func(roundResult) float64) []float64 {
	out := make([]float64, len(w.rounds))
	for i, r := range w.rounds {
		out[i] = f(r)
	}
	return out
}

// latencies pools the per-op host latencies of all rounds.
func (w *workloadResult) latencies() []float64 {
	var out []float64
	for _, r := range w.rounds {
		out = append(out, r.lat...)
	}
	return out
}

// endToEnd returns, for each end-to-end metric, its value per round. Host
// metrics are reported as the median over these; the virtual ones are
// identical in every round of a correct run.
func (w *workloadResult) endToEnd() map[string][]float64 {
	cyc := float64(w.cycle)
	perOp := func(f func(roundResult) float64) []float64 {
		return w.perRound(func(r roundResult) float64 { return f(r) / float64(r.ops) })
	}
	return map[string][]float64{
		mSetupS:        w.perRound(func(r roundResult) float64 { return r.setupS }),
		mOpsPerS:       w.perRound(func(r roundResult) float64 { return float64(r.ops) / r.wallS }),
		mAllocsPerOp:   perOp(func(r roundResult) float64 { return r.mallocs }),
		mAllocKiBPerOp: perOp(func(r roundResult) float64 { return r.allocBytes / 1024 }),
		mLiveHeapMiB:   w.perRound(func(r roundResult) float64 { return r.liveHeapMiB }),
		mMsgsPerOp:     w.perRound(func(r roundResult) float64 { return float64(r.first.msgs) / cyc }),
		mWireKiBPerOp:  w.perRound(func(r roundResult) float64 { return float64(r.first.bytes) / 1024 / cyc }),
		mVTimeMsPerOp:  w.perRound(func(r roundResult) float64 { return float64(r.first.vtime) / float64(time.Millisecond) / cyc }),
	}
}

// measureAll runs the given plans for the given number of rounds and
// returns one set of results per repeat. Everything is interleaved — round
// by round, repeat by repeat, workload by workload (r1: a.w1 a.w2 … b.w1
// b.w2 …, then r2) — so drift and warm-up of the host favour no workload
// and no repeat. The timed budget is split evenly over the rounds.
func measureAll(plans []plan, rounds, repeat int, seconds float64, probe *hostProbe) ([][]*workloadResult, error) {
	out := make([][]*workloadResult, repeat)
	for k := range out {
		for _, p := range plans {
			out[k] = append(out[k], &workloadResult{name: p.name(), cycle: p.opsPerCycle(), repeats: p.cyclesRepeat()})
		}
	}
	budget := time.Duration(seconds / float64(rounds) * float64(time.Second))
	for r := 0; r < rounds; r++ {
		for k := range out {
			for i, p := range plans {
				res, err := measureRound(p, budget, probe, nil)
				if err != nil {
					return nil, err
				}
				out[k][i].rounds = append(out[k][i].rounds, res)
			}
		}
	}
	return out, nil
}
