package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"adhocshare/internal/dqp"
	"adhocshare/internal/testutil"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

var traceStrategies = []dqp.Strategy{dqp.StrategyBasic, dqp.StrategyChain, dqp.StrategyFreqChain}

// TestTraceFig4TreeGolden pins the `sparql-explain -trace` text tree of
// the fixed-seed Fig. 4 query, one golden per strategy.
func TestTraceFig4TreeGolden(t *testing.T) {
	for _, s := range traceStrategies {
		spans, _, err := TraceFig4(Params{}, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteTree(&buf, spans); err != nil {
			t.Fatalf("%v: WriteTree: %v", s, err)
		}
		testutil.CheckGolden(t, "e9_fig4_"+s.String()+".tree", buf.Bytes())
	}
}

// TestTraceFig4ChromeGolden pins the Chrome trace_event export of the same
// query (the CI artifact format, loadable in Perfetto).
func TestTraceFig4ChromeGolden(t *testing.T) {
	spans, _, err := TraceFig4(Params{}, dqp.StrategyBasic)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "e9_fig4_basic.chrome.json", buf.Bytes())
}

// TestTraceFig4Deterministic: the same seed yields byte-identical spans
// across independent deployments.
func TestTraceFig4Deterministic(t *testing.T) {
	a, _, err := TraceFig4(Params{}, dqp.StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TraceFig4(Params{}, dqp.StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two same-seed runs recorded different spans")
	}
}

// topology summarizes a trace's causal shape: the widest sibling group and
// the deepest parent chain among the query's message spans.
func topology(spans []trace.Span) (maxFanout, maxDepth int) {
	children := map[uint64]int{}
	parent := map[uint64]uint64{}
	for _, s := range spans {
		if s.Query == 0 || s.Kind != trace.KindMessage {
			continue
		}
		children[s.Parent]++
		parent[s.ID] = s.Parent
	}
	for _, n := range children {
		if n > maxFanout {
			maxFanout = n
		}
	}
	for id := range parent {
		depth := 0
		for cur := id; cur != 0; cur = parent[cur] {
			depth++
			if depth > len(parent) { // cycle guard
				break
			}
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return maxFanout, maxDepth
}

// TestTraceFig4TopologiesDistinct: the three strategies must produce three
// distinct trace topologies matching Fig. 5 — the basic strategy's
// parallel fan-out is a star (wide, shallow), the chains are linked lists
// (narrow, deep), and frequency ordering visits the targets in a different
// sequence than node ordering.
func TestTraceFig4TopologiesDistinct(t *testing.T) {
	byStrategy := map[string][]trace.Span{}
	for _, s := range traceStrategies {
		spans, _, err := TraceFig4(Params{}, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		byStrategy[s.String()] = spans
	}
	basicW, basicD := topology(byStrategy[dqp.StrategyBasic.String()])
	chainW, chainD := topology(byStrategy[dqp.StrategyChain.String()])
	if basicW <= chainW {
		t.Errorf("basic fan-out %d is not wider than chain %d (expected a star)", basicW, chainW)
	}
	if chainD <= basicD {
		t.Errorf("chain depth %d is not deeper than basic %d (expected a linked list)", chainD, basicD)
	}
	// Pairwise distinct message sequences.
	hops := func(spans []trace.Span) []string {
		var out []string
		for _, s := range spans {
			if s.Query != 0 && s.Kind == trace.KindMessage {
				out = append(out, s.Name+" "+s.From+"→"+s.To)
			}
		}
		return out
	}
	names := []string{dqp.StrategyBasic.String(), dqp.StrategyChain.String(), dqp.StrategyFreqChain.String()}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if reflect.DeepEqual(hops(byStrategy[names[i]]), hops(byStrategy[names[j]])) {
				t.Errorf("strategies %s and %s produced identical message sequences", names[i], names[j])
			}
		}
	}
}

// TestTraceFig4NilRecorderParity: attaching the recorder changes nothing
// the engine can observe — stats (messages, bytes, virtual response time)
// match a recorder-free run of the identical deployment.
func TestTraceFig4NilRecorderParity(t *testing.T) {
	_, traced, err := TraceFig4(Params{}, dqp.StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := fig4Deployment(Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, bare, err := dep.runQuery(fig4Opts(dqp.StrategyChain), "D00", workload.QueryFig4("Smith"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, bare) {
		t.Errorf("tracing changed the engine stats:\ntraced: %+v\nbare:   %+v", traced, bare)
	}
}
