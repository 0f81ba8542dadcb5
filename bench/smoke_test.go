package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeOptions is -smoke on every workload with a budget of one cycle.
func smokeOptions(t *testing.T, seed int64) options {
	return options{workload: "all", seed: seed, seconds: 0.05, smoke: true, traceOut: t.TempDir()}
}

// TestSmokeMeasuringRun runs every workload on the smoke profile for two
// rounds: nothing may fail, the virtual metrics must be identical from
// round to round (correct() asserts it), and the metrics emitted are
// exactly BENCHMARK.json's end-to-end set, each a usable number.
func TestSmokeMeasuringRun(t *testing.T) {
	o := smokeOptions(t, 1)
	o.repeat = 1
	prof := smokeProfile
	prof.rounds = 2
	in, err := prepare(prof, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := in.plans(o.workload)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(o)
	if err := rep.measured(plans, prof, in.probe, o); err != nil {
		t.Fatal(err)
	}
	run := rep.Runs[0]
	if len(run) != len(workloadSpecs) {
		t.Fatalf("%d workloads ran, want %d", len(run), len(workloadSpecs))
	}
	for i, w := range run {
		if w.Name != workloadSpecs[i].Name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadSpecs[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.FailedShare != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d of %d; notes %v", w.Name, w.Correct, w.Failed, w.Attempted, w.Notes)
		}
		if len(w.Metrics) != len(endToEndSpecs) {
			t.Fatalf("%s emitted %d metrics, want %d", w.Name, len(w.Metrics), len(endToEndSpecs))
		}
		for j, m := range w.Metrics {
			spec := endToEndSpecs[j]
			if m.Name != spec.Name || m.Unit != spec.Unit {
				t.Errorf("%s metric %d is %s [%s], want %s [%s]", w.Name, j, m.Name, m.Unit, spec.Name, spec.Unit)
			}
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s.%s = %v, want a positive number", w.Name, m.Name, m.Value)
			}
			if spec.sameSeed == 0 && (m.Q1 != m.Value || m.Q3 != m.Value) {
				t.Errorf("%s.%s differs between rounds: %v..%v", w.Name, m.Name, m.Q1, m.Q3)
			}
		}
		if _, err := newResultLine(w.Correct, w.Attempted, w.Failed, w.Metrics); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// Arming only observes: the armed workload costs the same on the
	// virtual clock as the plain one.
	for _, name := range []string{mMsgsPerOp, mWireKiBPerOp, mVTimeMsPerOp} {
		if plain, armed := run[0].metric(name), run[3].metric(name); plain != armed {
			t.Errorf("%s: point_lookup %v, point_lookup_armed %v", name, plain, armed)
		}
	}
}

// TestSmokeTracedRun checks that the traced run emits every per-layer name
// (traced fails otherwise), finishes correct, writes its spans, and that a
// second seed runs clean too.
func TestSmokeTracedRun(t *testing.T) {
	o := smokeOptions(t, 2)
	in, err := prepare(smokeProfile, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(o)
	if err := rep.traced(smokeProfile, in, in.publish, o); err != nil {
		t.Fatal(err)
	}
	l := rep.Layers[0]
	if !l.Correct || l.Failed != 0 || len(l.Metrics) != len(layerSpecs) {
		t.Errorf("traced run: correct=%v failed=%d metrics=%d, want %d", l.Correct, l.Failed, len(l.Metrics), len(layerSpecs))
	}
	if _, err := newResultLine(l.Correct, l.Attempted, l.Failed, l.Metrics); err != nil {
		t.Error(err)
	}
	for _, file := range []string{"host_spans.json", "virtual_fig4.default.chrome.json", "virtual_publish_churn.chrome.json"} {
		if info, err := os.Stat(filepath.Join(o.traceOut, file)); err != nil || info.Size() == 0 {
			t.Errorf("span file %s: %v", file, err)
		}
	}
	if !rep.ok() {
		t.Error("report not ok")
	}
}

func TestResultLineRejectsNaN(t *testing.T) {
	if _, err := newResultLine(true, 1, 0, []metricReport{{Name: "x", Unit: "ms", Value: math.NaN()}}); err == nil {
		t.Error("a NaN metric must not reach the result line")
	}
}
