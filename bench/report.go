package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// metricReport is one metric in the report document. Value is the median
// over the rounds (host clock) or the exact per-op total (virtual clock); Q1 and Q3 are the quartiles over the
// rounds, PerRound the rounds in the order they ran (end-to-end metrics
// only), and Samples what the value was taken over.
type metricReport struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Value    float64   `json:"value"`
	Q1       float64   `json:"q1,omitempty"`
	Q3       float64   `json:"q3,omitempty"`
	Samples  int       `json:"samples"`
	PerRound []float64 `json:"per_round,omitempty"`
}

// workloadReport is one workload of one measuring run.
type workloadReport struct {
	Name        string  `json:"name"`
	Correct     bool    `json:"correct"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Rounds      int     `json:"rounds"`
	// Ops is the number of timed ops over all rounds, each one latency
	// sample, corrected for the speed of the host like the other host times;
	// P50Ms is their median and the tail the highest percentile with at
	// least ten of them beyond it.
	Ops            int            `json:"ops"`
	P50Ms          float64        `json:"op_host_p50_ms"`
	TailPercentile float64        `json:"op_host_tail_percentile"`
	TailMs         float64        `json:"op_host_tail_ms"`
	Metrics        []metricReport `json:"metrics"`
	// HostSpeed is, round by round, how fast the host ran the reference work
	// relative to the nominal host. The host-time metrics (setup_s,
	// ops_per_s, op_host_p50_ms) are corrected by it; a raw time is the
	// reported one divided by the round's host speed.
	HostSpeed []float64 `json:"host_speed"`
	// CycleS is the corrected host time of every timed cycle, round by
	// round.
	CycleS [][]float64 `json:"cycle_s"`
	Notes  []string    `json:"notes,omitempty"`
}

func (w *workloadReport) metric(name string) float64 {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// layersReport is one traced run.
type layersReport struct {
	About     string         `json:"harness_rows_about"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   []metricReport `json:"metrics"`
	// AdditiveError is how far point_lookup's median layer sum plus median
	// residual are from the median query span, as a share of it.
	AdditiveError float64 `json:"point_layers_plus_residual_vs_query"`
	TraceDir      string  `json:"trace_dir"`
}

// check is one row of the self-consistency check.
type check struct {
	What  string  `json:"what"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Diff  float64 `json:"rel_diff"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// report is the document -out writes: what ran, where, and every metric by
// name and unit. Claim is always null — this benchmark defines the
// measurement and claims no gain.
type report struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	// Runs holds one entry per measuring run (-repeat), each a list of
	// workloads; Layers one per traced run.
	Runs   [][]workloadReport `json:"runs"`
	Layers []layersReport     `json:"layers,omitempty"`
	Checks []check            `json:"checks,omitempty"`
	Claim  *string            `json:"claim"`
}

func newReport(o options) *report {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &report{
		Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit: commit,
	}
}

// measured makes the measuring runs, -repeat of them interleaved, and
// appends them.
func (r *report) measured(plans []plan, prof profile, probe *hostProbe, o options) error {
	results, err := measureAll(plans, prof.rounds, o.repeat, o.seconds, probe)
	if err != nil {
		return err
	}
	for _, run := range results {
		r.Runs = append(r.Runs, workloadReports(run))
	}
	return nil
}

func workloadReports(results []*workloadResult) []workloadReport {
	var run []workloadReport
	for _, w := range results {
		attempted, failed := w.counts()
		lat := w.latencies()
		pct, tailMs := tail(lat)
		wr := workloadReport{
			Name: w.name, Correct: w.correct(), Attempted: attempted, Failed: failed,
			FailedShare: float64(failed) / float64(attempted),
			Rounds:      len(w.rounds), Ops: len(lat), P50Ms: median(lat), TailPercentile: pct, TailMs: tailMs,
		}
		values := w.endToEnd()
		for _, spec := range endToEndSpecs {
			xs := values[spec.Name]
			q1, q3 := quartiles(xs)
			wr.Metrics = append(wr.Metrics, metricReport{Name: spec.Name, Unit: spec.Unit, Value: median(xs), Q1: q1, Q3: q3, Samples: len(xs), PerRound: xs})
		}
		seen := map[string]bool{}
		for _, rr := range w.rounds {
			wr.HostSpeed = append(wr.HostSpeed, rr.hostSpeed)
			wr.CycleS = append(wr.CycleS, rr.cycleS)
			if rr.note != "" && !seen[rr.note] {
				seen[rr.note] = true
				wr.Notes = append(wr.Notes, rr.note)
			}
		}
		run = append(run, wr)
	}
	return run
}

// traced runs one traced run and appends it.
func (r *report) traced(prof profile, in *inputs, about plan, o options) error {
	tr := newTracer()
	lv, attempted, failed, err := tracedRun(prof, in, about, o.seconds, tr)
	if err != nil {
		return err
	}
	if err := tr.write(o.traceOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	lr := layersReport{About: about.name(), Correct: failed == 0, Attempted: attempted, Failed: failed, TraceDir: o.traceOut}
	for _, spec := range layerSpecs {
		v, ok := lv[spec.Name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", spec.Name)
		}
		lr.Metrics = append(lr.Metrics, metricReport{Name: spec.Name, Unit: spec.Unit, Value: v.value, Samples: v.samples})
	}
	lr.AdditiveError = lv[checkPointAdditive].value
	r.Layers = append(r.Layers, lr)
	return nil
}

// checkRepeat holds the first two measuring runs to each other, metric by
// metric (a bound of 0 demands bit-identical values), and adds the sanity orderings no honest measurement may break:
// neither arming the recorders nor losing 1% of the messages makes the
// same ops faster.
func (r *report) checkRepeat() {
	a, b := r.Runs[0], r.Runs[1]
	for i := range a {
		for _, spec := range endToEndSpecs {
			va, vb := a[i].metric(spec.Name), b[i].metric(spec.Name)
			c := check{What: a[i].Name + "." + spec.Name, A: va, B: vb, Diff: relDiff(va, vb), Bound: spec.sameSeed}
			c.OK = c.Diff <= spec.sameSeed
			r.Checks = append(r.Checks, c)
		}
	}
	layers := r.Layers[len(r.Layers)-1]
	const slack = 0.10
	for _, name := range []string{"obs.armed_host_ratio", "faults.loss1pct.host_ratio"} {
		for _, m := range layers.Metrics {
			if m.Name == name {
				r.Checks = append(r.Checks, check{What: name + " >= 1 - slack", A: m.Value, B: 1, Diff: 1 - m.Value, Bound: slack, OK: m.Value >= 1-slack})
			}
		}
	}
	var plain, armed *workloadReport
	for i := range a {
		switch a[i].Name {
		case wPointLookup:
			plain = &a[i]
		case wPointLookupArmed:
			armed = &a[i]
		}
	}
	if plain != nil && armed != nil {
		p, q := plain.P50Ms, armed.P50Ms
		r.Checks = append(r.Checks, check{What: "point_lookup_armed.op_host_p50_ms >= point_lookup's - slack", A: q, B: p, Diff: (p - q) / p, Bound: slack, OK: q >= p*(1-slack)})
	}
}

// ok reports that every run was correct and every check held.
func (r *report) ok() bool {
	for _, run := range r.Runs {
		for _, w := range run {
			if !w.Correct {
				return false
			}
		}
	}
	for _, l := range r.Layers {
		if !l.Correct {
			return false
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// resultLine is the last line of standard output when one workload was
// named: what the benchmark contract in BENCHMARK.json's driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(correct bool, attempted, failed int, metrics []metricReport) (resultLine, error) {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return line, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		line.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	return line, nil
}

// emit prints the human-readable tables on standard error, writes the
// report document to -out and prints the result on standard output: the
// one-line result of the last run when one workload was named, the report
// document otherwise (unless -out took it).
func (r *report) emit(o options) (bool, error) {
	r.table()
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return false, fmt.Errorf("report document: %w", err)
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(doc, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if o.workload == "all" {
		if o.out == "" {
			fmt.Println(string(doc))
		}
		return r.ok(), nil
	}
	var line resultLine
	if o.trace == 1 {
		l := r.Layers[len(r.Layers)-1]
		line, err = newResultLine(l.Correct && r.ok(), l.Attempted, l.Failed, l.Metrics)
	} else {
		w := r.Runs[len(r.Runs)-1][0]
		line, err = newResultLine(w.Correct && r.ok(), w.Attempted, w.Failed, w.Metrics)
	}
	if err != nil {
		return false, err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct, nil
}

// table renders the report for people, on standard error.
func (r *report) table() {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "seed %d  seconds %g  %s  nproc %d  gomaxprocs %d  commit %s\n\n", r.Seed, r.Seconds, r.GoVersion, r.NProc, r.GoMaxProcs, r.Commit)
	for i, run := range r.Runs {
		for _, w := range run {
			fmt.Fprintf(tw, "run %d  %s  correct=%v  failed %d of %d  rounds %d  ops %d  p50 %.4g ms  tail p%.5g = %.4g ms  host speed %.2f\n",
				i+1, w.Name, w.Correct, w.Failed, w.Attempted, w.Rounds, w.Ops, w.P50Ms, w.TailPercentile, w.TailMs, median(w.HostSpeed))
			fmt.Fprintln(tw, "  metric\tunit\tvalue\tq1\tq3\tsamples")
			for _, m := range w.Metrics {
				fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", m.Name, m.Unit, m.Value, m.Q1, m.Q3, m.Samples)
			}
			for _, n := range w.Notes {
				fmt.Fprintf(tw, "  note: %s\n", n)
			}
			fmt.Fprintln(tw)
		}
	}
	for _, l := range r.Layers {
		fmt.Fprintf(tw, "traced run  harness rows about %s  correct=%v  failed %d of %d  layers+residual vs query %.2f%%  spans in %s\n",
			l.About, l.Correct, l.Failed, l.Attempted, 100*l.AdditiveError, l.TraceDir)
		fmt.Fprintln(tw, "  metric\tunit\tvalue\tsamples")
		for _, m := range l.Metrics {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%d\n", m.Name, m.Unit, m.Value, m.Samples)
		}
		fmt.Fprintln(tw)
	}
	if len(r.Checks) > 0 {
		fmt.Fprintln(tw, "self-consistency\ta\tb\trel diff\tbound\tok")
		for _, c := range r.Checks {
			fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.4f\t%.2f\t%v\n", c.What, c.A, c.B, c.Diff, c.Bound, c.OK)
		}
	}
	tw.Flush()
}
