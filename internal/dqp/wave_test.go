package dqp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// matchLegs runs a query under the default options with a fresh span
// recorder and returns its store.match legs, message count and bytes by
// (sender, receiver), and the names of every message it sent.
func matchLegs(t *testing.T, sys *overlay.System, initiator simnet.Addr, q string, now simnet.VTime) (legs map[[2]string][2]int, methods map[string]bool, done simnet.VTime) {
	t.Helper()
	buf := trace.NewBuffer()
	sys.Net().SetRecorder(buf)
	defer sys.Net().SetRecorder(nil)
	_, _, done, err := NewEngine(sys, DefaultOptions()).Query(initiator, q, now)
	if err != nil {
		t.Fatal(err)
	}
	legs, methods = map[[2]string][2]int{}, map[string]bool{}
	for _, s := range buf.Spans() {
		if s.Kind != trace.KindMessage {
			continue
		}
		methods[s.Name] = true
		if s.Name == overlay.MethodMatch {
			l := legs[[2]string{s.From, s.To}]
			legs[[2]string{s.From, s.To}] = [2]int{l[0] + 1, l[1] + s.Bytes}
		}
	}
	return legs, methods, done
}

// TestWaveSendsOneMatchPerTarget: under the default options a k-pattern BGP
// sends each target other than the initiator exactly one store.match, and
// its request and reply cost what the k one-pattern requests and replies to
// that target cost — batching saves messages, never bytes. Nothing but
// planning and those requests leaves the initiator: the pattern results are
// joined where they land.
func TestWaveSendsOneMatchPerTarget(t *testing.T) {
	const prefix = "PREFIX foaf: <http://xmlns.com/foaf/0.1/> PREFIX ns: <http://example.org/ns#>\n"
	patterns := []string{`?x foaf:name ?name`, `?x foaf:knows ?z`, `?x ns:knowsNothingAbout ?y`, `?y foaf:knows ?z`}
	sys, now := buildSystem(t, 5, paperData())
	const initiator = "D1"

	sum := map[[2]string]int{} // bytes of the one-pattern legs, by (sender, receiver)
	targets := map[string]bool{}
	for _, p := range patterns {
		legs, _, done := matchLegs(t, sys, initiator, prefix+"SELECT * WHERE { "+p+" . }", now)
		now = done
		for k, l := range legs {
			if l[0] != 1 {
				t.Fatalf("%s: %d store.match legs %s → %s, want 1", p, l[0], k[0], k[1])
			}
			sum[k] += l[1]
			if k[0] == initiator {
				targets[k[1]] = true
			}
		}
	}
	bgp := prefix + "SELECT * WHERE { "
	for _, p := range patterns {
		bgp += p + " . "
	}
	legs, methods, _ := matchLegs(t, sys, initiator, bgp+"}", now)
	if len(targets) < 2 || targets[initiator] {
		t.Fatalf("the fixture reaches targets %v from %s; want two or more others", targets, initiator)
	}
	for target := range targets {
		for _, dir := range [][2]string{{initiator, target}, {target, initiator}} {
			if got := legs[dir]; got != [2]int{1, sum[dir]} {
				t.Errorf("%s → %s: %d legs / %d B, want 1 / %d B (the one-pattern legs' sum)", dir[0], dir[1], got[0], got[1], sum[dir])
			}
		}
	}
	if len(legs) != 2*len(targets) {
		t.Errorf("%d store.match legs, want a request and a reply for each of %d targets", len(legs), len(targets))
	}
	for m := range methods {
		if m != overlay.MethodMatch && m != overlay.MethodLookup && m != "chord.find_successor" {
			t.Errorf("the wave sent %s", m)
		}
	}
}

// TestWaveOverCrashedTarget: a provider that crashed is unreachable to the
// wave. The answer is the oracle's over the other providers, every pattern
// that lists the dead one drops its stale posting, and the next query finds
// none left.
func TestWaveOverCrashedTarget(t *testing.T) {
	const q = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE { ?x foaf:name ?name . ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z . }`
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	sys.FailNode("D2")
	live := map[string][]rdf.Triple{}
	for name, ts := range data {
		if name != "D2" {
			live[name] = ts
		}
	}
	e := NewEngine(sys, DefaultOptions())
	res, stats, done, err := e.Query("D1", q, now)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(res.Solutions, oracle(t, live, q)) {
		t.Errorf("over a crashed provider: %v, the oracle over the live ones %v", res.Solutions, oracle(t, live, q))
	}
	// D2 holds a name and a knows triple: three of the four patterns list it
	if stats.StaleDrops != 3 {
		t.Errorf("%d stale drops, want one for each of the 3 patterns listing D2", stats.StaleDrops)
	}
	_, again, _, err := e.Query("D1", q, done)
	if err != nil {
		t.Fatal(err)
	}
	if again.StaleDrops != 0 {
		t.Errorf("the next query still found D2 listed (%d drops)", again.StaleDrops)
	}
}

// TestWaveLossyLinkIsTypedPartialFailure: a store.match leg still lost after
// the retries names its target in a PartialFailureError instead of leaving a
// pattern short. Planning is served from the lookup cache, so only the
// wave's legs meet the loss.
func TestWaveLossyLinkIsTypedPartialFailure(t *testing.T) {
	sys, now := buildSystem(t, 5, paperData())
	opts := DefaultOptions()
	opts.CacheLookups = true
	e := NewEngine(sys, opts)
	q := paperQueries["fig6-conjunction"]
	_, _, now, err := e.Query("D1", q, now)
	if err != nil {
		t.Fatal(err)
	}
	sys.Net().SetFaults(&simnet.FaultPlan{Seed: 1, LossRate: 0.999})
	_, _, _, err = e.Query("D1", q, now)
	var pf *PartialFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want a PartialFailureError", err)
	}
	if pf.Method != overlay.MethodMatch || len(pf.Missing) != 1 || pf.Missing[0] == "D1" {
		t.Errorf("partial failure %v: want store.match missing one provider other than the initiator", pf)
	}
}

// TestAskEarlyExitIsSequential: ASK over one pattern stops at the first
// target that answers a match, so every target before it has answered empty
// first. With the only match at the third of four targets in postings order,
// the pattern takes at least three round trips — under the default options
// and under the baseline's pipeline alike.
func TestAskEarlyExitIsSequential(t *testing.T) {
	data := map[string][]rdf.Triple{}
	for i, name := range []string{"A0", "A1", "Erin", "A3"} {
		p := fmt.Sprintf("A%d", i)
		data[p] = []rdf.Triple{{S: ex(p), P: fp("name"), O: rdf.NewLiteral(name + " Jones")}}
	}
	const ask = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:name ?n FILTER regex(?n, "Erin") }`
	for name, opts := range map[string]Options{"default": DefaultOptions(), "baseline": BaselineOptions()} {
		opts.PushFilters = true // the filter must ship for one row to settle ASK
		sys, now := buildSystem(t, 4, data)
		buf := trace.NewBuffer()
		sys.Net().SetRecorder(buf)
		res, stats, _, err := NewEngine(sys, opts).Query("idx-00", ask, now)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ask || stats.Subqueries != 3 {
			t.Fatalf("%s: ASK = %v after %d sub-queries, want true after 3", name, res.Ask, stats.Subqueries)
		}
		rtt := 2 * sys.Net().Config().BaseLatency
		found := false
		for _, s := range buf.Spans() {
			if s.Name == "dqp.pattern" {
				found = true
				if d := time.Duration(s.End - s.Start); d < 3*rtt {
					t.Errorf("%s: the pattern took %v, less than three sequential round trips (%v)", name, d, 3*rtt)
				}
			}
		}
		if !found {
			t.Errorf("%s: no dqp.pattern span recorded", name)
		}
	}
}
