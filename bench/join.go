package main

import (
	"fmt"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/workload"
)

// joinQuery is one query of the sweep: a pattern class under one option
// set, with the oracle's answer.
type joinQuery struct {
	class, opts string
	options     dqp.Options
	text        string
	answer      eval.Solutions
}

func (q joinQuery) label() string { return q.class + "." + q.opts }

// joinPlan is join_mix. One op is a sweep: the five pattern classes of
// Figs. 6, 7, 8, 9 and 4, each under the default and then the baseline
// options — ten queries in a fixed order.
type joinPlan struct {
	nIndex    int
	providers []simnet.Addr
	initial   []batch
	sweep     []joinQuery
}

// classQuery instantiates a pattern class on a dataset.
func classQuery(class string, d *workload.Dataset) string {
	switch class {
	case "conj":
		return workload.QueryConjunction()
	case "optional":
		return workload.QueryOptional("Smith")
	case "union":
		return workload.QueryUnion(d.PopularPerson)
	case "filter":
		return workload.QueryFilter("Smith")
	default:
		return workload.QueryFig4("Smith")
	}
}

func newJoinPlan(prof profile, d *workload.Dataset, union *rdf.Graph) (*joinPlan, error) {
	p := &joinPlan{nIndex: prof.join.index, providers: providerAddrs(d), initial: wholeProviders(d)}
	for _, class := range queryClasses {
		text := classQuery(class, d)
		answer, err := oracleEval(union, text)
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", class, err)
		}
		for _, o := range optionSets {
			p.sweep = append(p.sweep, joinQuery{class: class, opts: o.name, options: o.opts, text: text, answer: answer})
		}
	}
	return p, nil
}

func (p *joinPlan) name() string       { return wJoinMix }
func (p *joinPlan) opsPerCycle() int   { return 1 }
func (p *joinPlan) cyclesRepeat() bool { return true }

// joinRound is one deployment serving sweeps, with one engine per option
// set.
type joinRound struct {
	plan    *joinPlan
	dep     *deployment
	engines map[string]*dqp.Engine
}

func (p *joinPlan) begin() (round, error) {
	dep, err := buildDeployment(p.nIndex, p.providers, p.initial)
	if err != nil {
		return nil, err
	}
	r := &joinRound{plan: p, dep: dep, engines: map[string]*dqp.Engine{}}
	for _, o := range optionSets {
		r.engines[o.name] = dqp.NewEngine(dep.sys, o.opts)
	}
	return r, nil
}

func (r *joinRound) deployment() *deployment { return r.dep }

// query runs the j-th query of the sweep; the initiator rotates over the
// providers by position in the sweep, so every sweep is the same.
func (r *joinRound) query(j int) (*dqp.Result, dqp.Stats, error) {
	q := r.plan.sweep[j]
	initiator := r.plan.providers[j%len(r.plan.providers)]
	res, stats, done, err := r.engines[q.opts].Query(initiator, q.text, r.dep.now)
	r.dep.now = done
	return res, stats, err
}

func (r *joinRound) warmup() (attempted, failed int) {
	for j, q := range r.plan.sweep {
		res, _, err := r.query(j)
		if err != nil || !sameMultiset(res.Solutions, q.answer) {
			failed++
		}
	}
	return len(r.plan.sweep), failed
}

func (r *joinRound) cycle(log *cycleLog) {
	start := time.Now()
	ok := true
	for j, q := range r.plan.sweep {
		_, stats, err := r.query(j)
		ok = ok && err == nil && stats.Solutions == len(q.answer)
	}
	log.op("op.sweep", start, time.Now(), ok)
}

func (r *joinRound) finish() (int, string) { return 0, "" }
