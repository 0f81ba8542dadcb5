package dqp

// Per-query stage profiles: the trace spans of one query classified into
// the pipeline stages of the paper's Fig. 3 (successor resolution,
// location-table lookup, sub-query evaluation, intermediate-result
// transfer), with critical-path attribution — which stages the query's
// response time was actually spent in, as opposed to total parallel work.

import (
	"fmt"
	"io"
	"strings"

	"adhocshare/internal/overlay"
	"adhocshare/internal/trace"
)

// Stage names, in pipeline order.
const (
	StageResolve  = "resolve"  // chord.* traffic and a routed read's forwards
	StageLookup   = "lookup"   // index.* location-table reads (incl. hot reads)
	StageSubquery = "subquery" // dqp.dispatch + store.* sub-query evaluation
	StageTransfer = "transfer" // dqp.ship / dqp.result data movement
	StageOther    = "other"
)

// stageOrder fixes the rendering order.
var stageOrder = []string{StageResolve, StageLookup, StageSubquery, StageTransfer, StageOther}

// StageOf classifies one span into a pipeline stage ("" for op spans —
// dqp.query, dqp.plan, dqp.pattern — which wrap the messages they caused
// and would double-count the same virtual time).
func StageOf(s trace.Span) string {
	switch {
	case s.Kind == trace.KindOp:
		return ""
	case s.Name == overlay.MethodRoutedRead:
		// The forwards route the read; the owner's reply is the read.
		if s.IsResponse() {
			return StageLookup
		}
		return StageResolve
	case strings.HasPrefix(s.Name, "chord."):
		return StageResolve
	case strings.HasPrefix(s.Name, "index."):
		return StageLookup
	case s.Name == overlay.MethodDispatch || strings.HasPrefix(s.Name, "store."):
		return StageSubquery
	case s.Name == overlay.MethodShip || s.Name == overlay.MethodResult:
		return StageTransfer
	default:
		return StageOther
	}
}

// StageCost aggregates one stage's spans.
type StageCost struct {
	// Count is the number of spans attributed to the stage.
	Count int
	// Time is the summed virtual span duration in nanoseconds.
	Time int64
}

// StageProfile is the stage breakdown of one query.
type StageProfile struct {
	// Query is the trace identifier.
	Query uint64
	// Total is the query's end-to-end virtual duration.
	Total int64
	// ByStage is total (parallel) work per stage.
	ByStage map[string]StageCost
	// Critical is the per-stage share of the critical path: the blocking
	// chain reconstructed backwards from the query's last-finishing message
	// span, each hop being the latest-ending span that finished before the
	// current one started. Its times sum to at most Total, and the dominant
	// entry names the stage that bounded the response time.
	Critical map[string]StageCost
}

// BuildStageProfile classifies the spans of one query. Spans of other
// queries are ignored.
func BuildStageProfile(spans []trace.Span, query uint64) StageProfile {
	p := StageProfile{Query: query, ByStage: map[string]StageCost{}, Critical: map[string]StageCost{}}
	var qs []trace.Span
	for _, s := range spans {
		if s.Query == query {
			qs = append(qs, s)
		}
	}
	if len(qs) == 0 {
		return p
	}
	trace.SortSpans(qs)
	minStart, maxEnd := qs[0].Start, qs[0].End
	for _, s := range qs {
		if s.Start < minStart {
			minStart = s.Start
		}
		if s.End > maxEnd {
			maxEnd = s.End
		}
		if st := StageOf(s); st != "" {
			c := p.ByStage[st]
			c.Count++
			c.Time += s.End - s.Start
			p.ByStage[st] = c
		}
	}
	p.Total = maxEnd - minStart
	// Critical path: the blocking chain, reconstructed backwards from the
	// last-finishing stage-attributable span. The simulator is synchronous,
	// so "the latest-ending span that finished no later than this one
	// started" is the hop the current one was (transitively) waiting on;
	// overlapped (parallel) work is skipped. qs is in canonical order, so
	// ties break deterministically.
	var chain []trace.Span
	for _, s := range qs {
		if StageOf(s) == "" {
			continue
		}
		chain = append(chain, s)
	}
	if len(chain) == 0 {
		return p
	}
	lastIdx := 0
	for i, s := range chain[1:] {
		if s.End > chain[lastIdx].End || (s.End == chain[lastIdx].End && s.Start >= chain[lastIdx].Start) {
			lastIdx = i + 1
		}
	}
	used := map[int]bool{lastIdx: true}
	for cur := chain[lastIdx]; ; {
		c := p.Critical[StageOf(cur)]
		c.Count++
		c.Time += cur.End - cur.Start
		p.Critical[StageOf(cur)] = c
		best := -1
		for i, s := range chain {
			if used[i] || s.End > cur.Start {
				continue
			}
			if best < 0 || s.End > chain[best].End ||
				(s.End == chain[best].End && s.Start >= chain[best].Start) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		cur = chain[best]
	}
	return p
}

// WriteStageProfile renders the profile as an aligned text table.
func WriteStageProfile(w io.Writer, p StageProfile) error {
	if _, err := fmt.Fprintf(w, "stage profile query=%#x total=%d vns\n", p.Query, p.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-10s %8s %14s %8s %14s\n", "stage", "spans", "work(vns)", "crit", "crit(vns)"); err != nil {
		return err
	}
	for _, st := range stageOrder {
		work, crit := p.ByStage[st], p.Critical[st]
		if work.Count == 0 && crit.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-10s %8d %14d %8d %14d\n", st, work.Count, work.Time, crit.Count, crit.Time); err != nil {
			return err
		}
	}
	return nil
}

// Stages lists the stages present in the profile, in pipeline order.
func (p StageProfile) Stages() []string {
	var out []string
	for _, st := range stageOrder {
		if p.ByStage[st].Count > 0 || p.Critical[st].Count > 0 {
			out = append(out, st)
		}
	}
	return out
}
