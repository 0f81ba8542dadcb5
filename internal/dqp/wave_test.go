package dqp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/sparql/optimize"
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
		if m != overlay.MethodMatch && m != overlay.MethodRoutedRead {
			t.Errorf("the wave sent %s", m)
		}
	}
}

// TestWaveOverCrashedTarget: a provider that crashed is unreachable to a
// round, whether it is the default's wave or one of the baseline pipeline's
// rounds, reordered or not. The answer is the oracle's over the other
// providers, every pattern that lists the dead one drops its stale posting,
// and the next query finds none left.
func TestWaveOverCrashedTarget(t *testing.T) {
	const q = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> PREFIX ns: <http://example.org/ns#>
SELECT ?x ?y ?z WHERE { ?x foaf:name ?name . ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z . }`
	data := paperData()
	live := map[string][]rdf.Triple{}
	for name, ts := range data {
		if name != "D2" {
			live[name] = ts
		}
	}
	reordered := BaselineOptions()
	reordered.ReorderJoins = true
	for _, form := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"baseline", BaselineOptions()}, {"baseline-reordered", reordered}} {
		t.Run(form.name, func(t *testing.T) {
			sys, now := buildSystem(t, 5, data)
			sys.FailNode("D2")
			e := NewEngine(sys, form.opts)
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
		})
	}
}

// TestWaveLossyLinkIsTypedPartialFailure: a leg still lost after the retries
// is a PartialFailureError naming its step instead of a short answer. With
// planning served from the lookup cache the round's legs meet the loss
// first: under the default the wave's store.match, and the error names the
// target; under the baseline the first round's dqp.dispatch, and the error
// names the first pattern's index node. Without the cache the query's first
// step, the planning round's one routed read of its several keys, meets it
// first. A crashed index node that owned one of those keys is routed around
// — by a hop's fallback along its candidates, or by the owner's predecessor
// handing the read to the replica holder — and the answer is still the
// oracle's.
func TestWaveLossyLinkIsTypedPartialFailure(t *testing.T) {
	q := paperQueries["fig6-conjunction"]
	t.Run("match", func(t *testing.T) {
		for _, form := range []struct {
			name string
			opts Options
		}{{"default", DefaultOptions()}, {"baseline", BaselineOptions()}} {
			t.Run(form.name, func(t *testing.T) {
				sys, now := buildSystem(t, 5, paperData())
				opts := form.opts
				opts.CacheLookups = true
				e := NewEngine(sys, opts)
				_, _, now, err := e.Query("D1", q, now)
				if err != nil {
					t.Fatal(err)
				}
				// the baseline's first round is the query's first pattern's
				key, _, _ := overlay.PatternKey(rdf.Triple{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("z")}, sys.Config().Bits)
				index, _, now, err := sys.ResolveKey("D1", key, now)
				if err != nil {
					t.Fatal(err)
				}
				sys.Net().SetFaults(&simnet.FaultPlan{Seed: 1, LossRate: 0.999})
				_, _, _, err = e.Query("D1", q, now)
				var pf *PartialFailureError
				if !errors.As(err, &pf) {
					t.Fatalf("err = %v, want a PartialFailureError", err)
				}
				if form.opts.Conjunction == ConjPipeline {
					if pf.Method != overlay.MethodDispatch || len(pf.Missing) != 1 || pf.Missing[0] != index {
						t.Errorf("partial failure %v: want %s missing the first pattern's index node %s", pf, overlay.MethodDispatch, index)
					}
				} else if pf.Method != overlay.MethodMatch || len(pf.Missing) != 1 || pf.Missing[0] == "D1" {
					t.Errorf("partial failure %v: want store.match missing one provider other than the initiator", pf)
				}
			})
		}
	})
	t.Run("batch", func(t *testing.T) {
		sys, now := buildSystem(t, 5, paperData())
		sys.Net().SetFaults(&simnet.FaultPlan{Seed: 1, LossRate: 0.999})
		_, _, _, err := NewEngine(sys, DefaultOptions()).Query("D1", q, now)
		var pf *PartialFailureError
		if !errors.As(err, &pf) {
			t.Fatalf("err = %v, want a PartialFailureError", err)
		}
		if pf.Method != overlay.MethodRoutedRead || len(pf.Missing) != 0 {
			t.Errorf("partial failure %v: want %s, no site named", pf, overlay.MethodRoutedRead)
		}
	})
	t.Run("crashed-owner", func(t *testing.T) {
		const victim = "idx-02"
		q := paperQueries["fig4-full"]
		sys, now := buildSystem(t, 6, paperData())
		owned := false
		for _, p := range []rdf.Triple{
			{S: rdf.NewVar("x"), P: fp("name"), O: rdf.NewVar("n")},
			{S: rdf.NewVar("x"), P: fp("knows"), O: rdf.NewVar("z")},
			{S: rdf.NewVar("x"), P: rdf.NewIRI("http://example.org/ns#knowsNothingAbout"), O: rdf.NewVar("y")},
		} {
			key, _, _ := overlay.PatternKey(p, sys.Config().Bits)
			owner, _, _, err := sys.ResolveKey("D1", key, now)
			if err != nil {
				t.Fatal(err)
			}
			owned = owned || owner == victim
		}
		if !owned {
			t.Fatalf("%s owns none of the query's keys; the fixture no longer covers a crashed owner", victim)
		}
		sys.FailNode(victim)
		now = sys.StabilizeRound(now)
		rec := trace.NewBuffer()
		sys.Net().SetRecorder(rec)
		res, _, _, err := NewEngine(sys, DefaultOptions()).Query("D1", q, now)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(t, paperData(), q); !sameMultiset(res.Solutions, want) {
			t.Errorf("with %s crashed: %v, the oracle %v", victim, res.Solutions, want)
		}
		routedAround := false
		for _, sp := range rec.Spans() {
			routedAround = routedAround || sp.Name == overlay.MethodRoutedRead && sp.To == victim && sp.Note == flight.KindUnreachable
		}
		if !routedAround {
			t.Errorf("no routed read met %s down: the fixture no longer routes around a crashed owner", victim)
		}
	})
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

// TestQueryWaveIsItsBGPsAlone: a basic query runs as rounds. Under
// basic/parallel-join its BGPs leave the initiator as one round, the wave:
// over randomQuery's queries (OPTIONAL, UNION, group joins, filters) the
// wave's store.match bytes are the sum of what each BGP sends when run alone
// from the same initiator, its messages are one request and one reply per
// distinct remote target of those runs, and the answer is the oracle's.
// Under the baseline's pipeline every pattern is a round of its own,
// assembled at its index node: the answer is the oracle's, and every
// store.match request leaves that node (checkQueryWave).
func TestQueryWaveIsItsBGPsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized property test")
	}
	for _, form := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"baseline", BaselineOptions()}} {
		t.Run(form.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				data := randomDataset(rng)
				sys, now := buildSystem(t, 3+rng.Intn(4), data)
				for i := 0; i < 12; i++ {
					query := randomQuery(rng)
					opts := form.opts
					opts.PushFilters, opts.ReorderJoins = rng.Intn(2) == 0, rng.Intn(2) == 0
					now = checkQueryWave(t, NewEngine(sys, opts), "P0", query, oracle(t, data, query), now)
				}
			}
		})
	}
}

// TestQueryWaveAcrossGraphScopes: two BGPs under different GRAPH names share
// a provider, which gets one store.match carrying a unit of each scope.
func TestQueryWaveAcrossGraphScopes(t *testing.T) {
	const g1, g2 = "http://example.org/graphs/g1", "http://example.org/graphs/g2"
	sys, now := buildSystem(t, 4, map[string][]rdf.Triple{"D1": nil, "D2": nil,
		"D3": {{S: ex("dave"), P: fp("name"), O: rdf.NewLiteral("Dave")}}})
	for _, pub := range []struct {
		node  simnet.Addr
		graph string
		t     rdf.Triple
	}{
		{"D1", g1, rdf.Triple{S: ex("alice"), P: fp("knows"), O: ex("bob")}},
		{"D1", g2, rdf.Triple{S: ex("bob"), P: fp("knows"), O: ex("carol")}},
		{"D2", g2, rdf.Triple{S: ex("carol"), P: fp("knows"), O: ex("alice")}},
	} {
		var err error
		if now, err = sys.PublishGraph(pub.node, pub.graph, []rdf.Triple{pub.t}, now); err != nil {
			t.Fatal(err)
		}
	}
	query := fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT * WHERE { { GRAPH <%s> { ?x foaf:knows ?y . } } UNION { GRAPH <%s> { ?x foaf:knows ?y . FILTER(?y != <http://example.org/alice>) } } }`, g1, g2)
	want := eval.Solutions{
		{"x": ex("alice"), "y": ex("bob")},
		{"x": ex("bob"), "y": ex("carol")},
	}
	checkQueryWave(t, NewEngine(sys, DefaultOptions()), "D3", query, want, now)
}

// checkQueryWave runs query from initiator and checks the answer against
// want and the rounds against the query's BGPs: under parallel-join the
// wave against each BGP run alone, under the pipeline where each round's
// requests leave (checkRoundSites).
func checkQueryWave(t *testing.T, e *Engine, initiator simnet.Addr, query string, want eval.Solutions, now simnet.VTime) simnet.VTime {
	t.Helper()
	rec := trace.NewBuffer()
	e.sys.Net().SetRecorder(rec)
	res, stats, now, err := e.Query(initiator, query, now)
	e.sys.Net().SetRecorder(nil)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if !sameMultiset(res.Solutions, want) {
		t.Errorf("%s\ngot:  %v\nwant: %v", query, res.Solutions, want)
	}
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := algebra.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	op = optimize.Optimize(op, optimize.Options{PushFilters: e.opts.PushFilters})
	if e.opts.Conjunction == ConjPipeline {
		return checkRoundSites(t, e, initiator, query, op, rec.Spans(), now)
	}
	var bytes int64
	targets := map[string]bool{}
	for _, bgp := range bgpOps(e, op, nil) {
		buf := trace.NewBuffer()
		e.sys.Net().SetRecorder(buf)
		ctx := e.newQctx(initiator, q)
		_, done, err := e.runPlan(ctx, q, bgp, now)
		traffic := e.sys.Net().UntrackQuery(ctx.tc.Query)
		e.sys.Net().SetRecorder(nil)
		if err != nil {
			t.Fatalf("%s alone: %v", bgp, err)
		}
		now = done
		bytes += traffic.PerMethod[overlay.MethodMatch].Bytes
		for _, s := range buf.Spans() {
			if s.Kind == trace.KindMessage && s.Name == overlay.MethodMatch && s.From == string(initiator) {
				targets[s.To] = true
			}
		}
	}
	got := stats.PerMethod[overlay.MethodMatch]
	if got.Bytes != bytes {
		t.Errorf("%s: store.match %d B, its BGPs alone %d B", query, got.Bytes, bytes)
	}
	if got.Messages != int64(2*len(targets)) {
		t.Errorf("%s: %d store.match messages, want a request and a reply for each of %d remote targets", query, got.Messages, len(targets))
	}
	return now
}

// checkRoundSites checks where a basic pipeline's rounds ran: every
// store.match request in spans hangs off its pattern's dqp.pattern span and
// leaves that pattern's index node, the owner of its key; the requests of a
// pattern that floods leave the seeds' site, the initiator or another
// pattern's index node. So the initiator sends none unless it is that site.
func checkRoundSites(t *testing.T, e *Engine, initiator simnet.Addr, query string, op algebra.Op, spans []trace.Span, now simnet.VTime) simnet.VTime {
	t.Helper()
	owners := map[string]simnet.Addr{} // by dqp.pattern label; "" when the pattern floods
	sites := map[simnet.Addr]bool{initiator: true}
	for _, bgp := range bgpOps(e, op, nil) {
		c, _ := e.asBGP(bgp)
		for _, pat := range c.bgp.Patterns {
			owner := simnet.Addr("")
			if key, _, ok := overlay.PatternKey(pat, e.sys.Config().Bits); ok {
				var err error
				if owner, _, now, err = e.sys.ResolveKey(initiator, key, now); err != nil {
					t.Fatal(err)
				}
				sites[owner] = true
			}
			owners[StrategyBasic.String()+" "+pat.String()] = owner
		}
	}
	labels := map[uint64]string{}
	for _, s := range spans {
		if s.Kind == trace.KindOp && s.Name == "dqp.pattern" {
			labels[s.ID], _, _ = strings.Cut(s.Note, " keys ")
		}
	}
	for _, s := range spans {
		if s.Kind != trace.KindMessage || s.Name != overlay.MethodMatch || s.IsResponse() {
			continue
		}
		owner, ok := owners[labels[s.Parent]]
		switch {
		case !ok:
			t.Errorf("%s: a store.match %s → %s hangs off no pattern round", query, s.From, s.To)
		case owner != "" && simnet.Addr(s.From) != owner:
			t.Errorf("%s: %q's request to %s left %s, not its index node %s", query, labels[s.Parent], s.To, s.From, owner)
		case owner == "" && !sites[simnet.Addr(s.From)]:
			t.Errorf("%s: flooding %q's request to %s left %s, no seeds' site", query, labels[s.Parent], s.To, s.From)
		}
	}
	return now
}

// bgpOps appends the operators of op that run as one BGP, with the filter
// and GRAPH scope that ship with it.
func bgpOps(e *Engine, op algebra.Op, out []algebra.Op) []algebra.Op {
	if c, ok := e.asBGP(op); ok {
		if len(c.bgp.Patterns) > 0 {
			out = append(out, op)
		}
		return out
	}
	for _, in := range op.Children() {
		out = bgpOps(e, in, out)
	}
	return out
}
