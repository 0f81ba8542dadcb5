package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

// The point_lookup key distribution: Zipf with exponent 1.1 over the
// persons, shifted by 20 ranks (P(r) ∝ (20+r)^-1.1). The shift keeps a hot
// set — the 100 hottest of 5000 keys take about two ops in five — without
// letting any single key exceed 1.2% of the ops, so the metrics average
// over hundreds of keys instead of following the data of one.
const (
	zipfExponent = 1.1
	zipfShift    = 20
	knownShare   = 25
)

// armRing and armSpans size the observability taps of point_lookup_armed:
// flight-recorder events per node and trace-ring spans.
const (
	armRing  = 128
	armSpans = 4096
)

// pointOp is one primitive SELECT and the number of solutions the oracle
// gives it.
type pointOp struct {
	query string
	want  int
}

// pointPlan is point_lookup and, with armed set, point_lookup_armed: the
// same op list on the same data with the observability taps installed.
type pointPlan struct {
	armed     bool
	nIndex    int
	providers []simnet.Addr
	initial   []batch
	// ops is the fixed op list; distinct indexes the first occurrence of
	// every distinct query in it and answers holds the oracle's solutions
	// for those.
	ops      []pointOp
	distinct []int
	answers  []eval.Solutions
}

// zipfQuota splits total ops over n ranks in proportion to the shifted
// Zipf weights, by rounding the cumulative distribution: the counts sum to
// total exactly and are the same under every seed. Drawing the keys at
// random instead would let a handful of rare, expensive keys (a person
// thousands know) decide the byte and message counts of a run.
func zipfQuota(n, total int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for r := range weights {
		weights[r] = math.Pow(zipfShift+float64(r), -zipfExponent)
		sum += weights[r]
	}
	out := make([]int, n)
	cum, given := 0.0, 0
	for r, w := range weights {
		cum += w
		upTo := int(math.Floor(float64(total)*cum/sum + 0.5))
		out[r] = upTo - given
		given = upTo
	}
	out[n-1] += total - given
	return out
}

// rankToPerson spreads the popularity ranks over the person indices with a
// fixed stride, so the hot keys are the same persons under every seed. The
// most widely known persons (the first 1/knownShare of the indices) are
// never a key: a single lookup of person 0 returns thousands of rows, a
// third of all rows of a cycle, and three such ops decided the workload's
// byte and allocation counts.
func rankToPerson(rank, persons int) int {
	n := keyPersons(persons)
	stride := 1949
	for gcd(stride, n) != 1 {
		stride++
	}
	return persons - n + (rank*stride+n/2)%n
}

// keyPersons is the number of persons that may be a key, and so the number
// of popularity ranks.
func keyPersons(persons int) int { return persons - persons/knownShare }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pointQuery builds one of the three primitive queries about a person:
// who knows them (a ⟨p,o⟩ key), their name (⟨s,p⟩) or everything about
// them (⟨s⟩).
func pointQuery(kind int, person rdf.Term) string {
	switch kind {
	case 0:
		return workload.QueryPrimitive(person)
	case 1:
		return fmt.Sprintf("PREFIX foaf: <%s>\nSELECT ?n WHERE { %s foaf:name ?n . }", workload.FOAF, person)
	default:
		return fmt.Sprintf("SELECT ?q ?o WHERE { %s ?q ?o . }", person)
	}
}

// pointKinds is the 60/20/20 mix of the three query kinds, dealt in turn
// over the op list before it is shuffled.
var pointKinds = [5]int{0, 0, 1, 0, 2}

func newPointPlan(prof profile, d *workload.Dataset, union *rdf.Graph, seed int64) (*pointPlan, error) {
	p := &pointPlan{
		nIndex:    prof.point.index,
		providers: providerAddrs(d),
		initial:   wholeProviders(d),
	}
	n := 0
	for rank, count := range zipfQuota(keyPersons(len(d.Persons)), prof.pointCycleOps) {
		person := d.Persons[rankToPerson(rank, len(d.Persons))]
		for ; count > 0; count-- {
			p.ops = append(p.ops, pointOp{query: pointQuery(pointKinds[n%len(pointKinds)], person)})
			n++
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(p.ops), func(i, j int) { p.ops[i], p.ops[j] = p.ops[j], p.ops[i] })
	first := map[string]int{}
	for i := range p.ops {
		q := p.ops[i].query
		at, seen := first[q]
		if !seen {
			sols, err := oracleEval(union, q)
			if err != nil {
				return nil, fmt.Errorf("oracle for %q: %w", q, err)
			}
			at = len(p.distinct)
			first[q] = at
			p.distinct = append(p.distinct, i)
			p.answers = append(p.answers, sols)
		}
		p.ops[i].want = len(p.answers[at])
	}
	return p, nil
}

func (p *pointPlan) name() string {
	if p.armed {
		return wPointLookupArmed
	}
	return wPointLookup
}

func (p *pointPlan) opsPerCycle() int   { return len(p.ops) }
func (p *pointPlan) cyclesRepeat() bool { return true }

// pointRound is one deployment serving point lookups.
type pointRound struct {
	plan   *pointPlan
	dep    *deployment
	engine *dqp.Engine
	// mon is set on the armed workload.
	mon *overlay.Monitors
}

func (p *pointPlan) begin() (round, error) {
	dep, err := buildDeployment(p.nIndex, p.providers, p.initial)
	if err != nil {
		return nil, err
	}
	r := &pointRound{plan: p, dep: dep, engine: dqp.NewEngine(dep.sys, dqp.DefaultOptions())}
	if p.armed {
		r.arm()
	}
	return r, nil
}

// arm installs what point_lookup_armed adds to point_lookup: the flight
// recorder with its monitors, and a metrics registry plus a bounded span
// ring on the fabric.
func (r *pointRound) arm() {
	r.mon = overlay.Arm(r.dep.sys, armRing)
	r.dep.sys.Net().SetRecorder(armedRecorder())
}

// armedRecorder is the span recorder of the armed state.
func armedRecorder() trace.Recorder {
	return trace.Tee(trace.NewRegistry(), trace.NewRingBuffer(armSpans))
}

// disarm removes the taps again (the traced run compares both states on
// one deployment).
func (r *pointRound) disarm() {
	r.mon = nil
	r.dep.sys.Net().SetFlightRecorder(nil)
	r.dep.sys.Net().SetRecorder(nil)
}

func (r *pointRound) deployment() *deployment { return r.dep }

// initiator rotates the querying node over the providers by op index.
func (r *pointRound) initiator(i int) simnet.Addr {
	return r.plan.providers[i%len(r.plan.providers)]
}

// query runs op i through the engine on the deployment's clock.
func (r *pointRound) query(i int) (*dqp.Result, dqp.Stats, error) {
	res, stats, done, err := r.engine.Query(r.initiator(i), r.plan.ops[i].query, r.dep.now)
	r.dep.now = done
	return res, stats, err
}

func (r *pointRound) warmup() (attempted, failed int) {
	for k, i := range r.plan.distinct {
		res, _, err := r.query(i)
		if err != nil || !sameMultiset(res.Solutions, r.plan.answers[k]) {
			failed++
		}
	}
	return len(r.plan.distinct), failed
}

func (r *pointRound) cycle(log *cycleLog) {
	start := time.Now()
	for i := range r.plan.ops {
		_, stats, err := r.query(i)
		end := time.Now()
		log.op("op.point", start, end, err == nil && stats.Solutions == r.plan.ops[i].want)
		start = end
	}
}

// finish checks the armed deployment with every monitor.
func (r *pointRound) finish() (int, string) {
	if r.mon == nil {
		return 0, ""
	}
	return len(r.mon.CheckAll()), ""
}
