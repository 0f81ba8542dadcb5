package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecWithinContract holds the tables to the limits of the benchmark
// contract: name and unit alphabets, counts, bounds, one-line reasons, and
// no name used twice.
func TestSpecWithinContract(t *testing.T) {
	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	direction := func(n, better string) {
		if better != lower && better != higher {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloadSpecs {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range endToEndSpecs {
		name("end-to-end", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetupS {
			setup = m.Unit == "s" && m.Better == lower
			for _, other := range endToEndSpecs {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(layerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range layerSpecs {
		name("per-layer", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json at the root of the
// repository to the tables the binary emits from: the same names, units,
// directions and bounds. Regenerate it with `go run . -spec`.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var onDisk benchmarkFile
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	// The unexported same-seed tolerance is not part of the file.
	want := benchmarkSpec()
	want.EndToEnd = append([]endToEndSpec(nil), want.EndToEnd...)
	for i := range want.EndToEnd {
		want.EndToEnd[i].sameSeed = 0
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", onDisk.RunSeconds)
	}
}
