package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adhocshare/internal/dqp"
	"adhocshare/internal/flight"
	"adhocshare/internal/overlay"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

// The armed-monitor smoke surface of CI: the full experiment matrices must
// run violation-free with the flight recorder and every invariant monitor
// armed, same-seed event logs must be byte-identical, and a failing run
// leaves an incident report behind when INCIDENT_DIR is set.

// saveIncident writes an incident report artifact when INCIDENT_DIR is
// set (the CI upload path); it is called only on assertion failure.
func saveIncident(t *testing.T, mon *overlay.Monitors, title string, vs []flight.Violation) {
	t.Helper()
	dir := os.Getenv("INCIDENT_DIR")
	if dir == "" || mon == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("incident dir: %v", err)
		return
	}
	name := strings.Map(func(r rune) rune {
		if r == ' ' || r == '/' {
			return '-'
		}
		return r
	}, title)
	path := filepath.Join(dir, name+".txt")
	f, err := os.Create(path)
	if err != nil {
		t.Logf("incident artifact: %v", err)
		return
	}
	defer f.Close()
	if err := mon.Incident(title, vs, 32).Write(f); err != nil {
		t.Logf("incident artifact: %v", err)
		return
	}
	t.Logf("wrote incident report %s", path)
}

// TestE9FlightMonitorsClean runs the full 12-configuration E9 strategy
// matrix with the recorder and monitors armed: every configuration must
// come back violation-free, and arming must not change any measured cell.
func TestE9FlightMonitorsClean(t *testing.T) {
	render := func(p Params) (*Table, string) {
		tab, err := E9Fig4EndToEnd(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		var b strings.Builder
		for _, r := range tab.Rows {
			fmt.Fprintln(&b, r)
		}
		return tab, b.String()
	}
	armed, armedRows := render(Params{Flight: 128})
	clean := false
	for _, n := range armed.Notes {
		if strings.Contains(n, "MONITOR") {
			t.Errorf("violation note: %s", n)
		}
		if strings.Contains(n, "zero violations") {
			clean = true
		}
	}
	if !clean {
		t.Error("armed E9 run did not report the zero-violations note")
	}
	_, plainRows := render(Params{})
	if armedRows != plainRows {
		t.Errorf("arming the recorder changed E9 measurements:\n--- armed ---\n%s--- plain ---\n%s",
			armedRows, plainRows)
	}
}

// TestE16FlightMonitorsClean runs both storm modes armed: the post-storm
// monitor verdict must be clean in each.
func TestE16FlightMonitorsClean(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		sum, err := E16ZipfStormSummary(Params{Flight: 128}, adaptive)
		if err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		if sum.Monitors != "ok" {
			t.Errorf("adaptive=%v: monitors = %q, want ok", adaptive, sum.Monitors)
		}
	}
}

// TestFlightQueryCleanWithIncidentArtifact runs one traced query with the
// monitors armed: zero violations expected; on failure an incident report
// is written to INCIDENT_DIR for the CI artifact upload.
func TestFlightQueryCleanWithIncidentArtifact(t *testing.T) {
	ft, err := TraceQueryFlight(Params{}, dqp.StrategyFreqChain, "D00", workload.QueryFig4("Smith"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Violations) != 0 {
		saveIncident(t, ft.Monitors, "flight-query-clean", ft.Violations)
		t.Fatalf("armed demo query raised %d violations: %v", len(ft.Violations), ft.Violations)
	}
	if ft.Query == 0 {
		t.Fatal("traced query has no trace identifier")
	}
	rec := ft.Monitors.Recorder()
	if rec.Count(flight.KindStage) == 0 {
		t.Error("no query.stage events recorded")
	}
	if rec.Count(flight.KindDeliver) == 0 {
		t.Error("no deliver events recorded")
	}
	prof := dqp.BuildStageProfile(ft.Spans, ft.Query)
	if len(prof.Stages()) == 0 {
		t.Error("stage profile is empty")
	}
}

// TestFlightEventLogSameSeedByteIdentical pins the tentpole determinism
// claim: identical Params reproduce identical retained event logs.
func TestFlightEventLogSameSeedByteIdentical(t *testing.T) {
	run := func(p Params) []flight.Event {
		ft, err := TraceQueryFlight(p, dqp.StrategyChain, "D00", workload.QueryFig4("Smith"))
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		return ft.Events
	}
	// Small ring (64 events) so eviction is exercised, not just recording.
	first := run(Params{Seed: 7, Flight: 64})
	again := run(Params{Seed: 7, Flight: 64})
	if !reflect.DeepEqual(first, again) {
		t.Errorf("same-seed event logs differ: %d vs %d events", len(first), len(again))
	}
}

// TestSnapshotsSameSeedByteIdentical attaches a metrics Registry and a
// ring-mode span Buffer to the fabric and compares their snapshots between
// two runs of the same seeded query: both must be byte-identical, and the
// ring must have evicted down to its capacity. Locking under real overlap
// is exercised by TestOverlappingQueriesAreNotCrossCharged.
func TestSnapshotsSameSeedByteIdentical(t *testing.T) {
	run := func() (trace.MetricsSnapshot, []trace.Span) {
		dep, err := fig4Deployment(Params{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		reg := trace.NewRegistry()
		ring := trace.NewRingBuffer(48)
		dep.sys.Net().SetRecorder(trace.Tee(reg, ring))
		if _, _, err := dep.runQuery(fig4Opts(dqp.StrategyBasic), "D00", workload.QueryFig4("Smith")); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), ring.Spans()
	}
	firstSnap, firstSpans := run()
	againSnap, againSpans := run()
	if !reflect.DeepEqual(firstSnap, againSnap) {
		t.Error("same-seed Registry snapshots differ")
	}
	if !reflect.DeepEqual(firstSpans, againSpans) {
		t.Errorf("same-seed ring-buffer spans differ (%d vs %d)", len(firstSpans), len(againSpans))
	}
	if len(firstSpans) != 48 {
		t.Errorf("ring buffer not at capacity: %d spans, want 48", len(firstSpans))
	}
}
