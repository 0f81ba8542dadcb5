package dqp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// trafficOf projects the fabric-attributed part of a query's Stats.
func trafficOf(s Stats) simnet.QueryTraffic {
	return simnet.QueryTraffic{Messages: s.Messages, Bytes: s.Bytes, PerMethod: s.PerMethod}
}

// TestStatsEqualCounterDeltaWhenSerial is the bridge between the two
// accountings: when nothing else shares the fabric, the traffic attributed
// to a query by its TraceContext must equal the delta of the global
// counters around it — for every E9 configuration and every query form.
// A query-time leg travelling without its context would be counted by the
// fabric but attributed to nobody, and break the equality.
func TestStatsEqualCounterDeltaWhenSerial(t *testing.T) {
	queries := map[string]string{
		"describe-bare": `DESCRIBE <http://example.org/bob>`,
		"ask":           `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:nick "Shrek" . }`,
	}
	for name, q := range paperQueries {
		queries[name] = q
	}
	for _, staleNode := range []bool{false, true} {
		for ci, opts := range e9Configs() {
			// A fresh deployment per configuration, like E9: with a failed
			// provider the first query also drives the Sect. III-D
			// retraction traffic (index.drop_node, propagated).
			sys, now := buildSystem(t, 5, paperData())
			if staleNode {
				sys.FailNode("D2")
			}
			for name, q := range queries {
				before := sys.Net().Metrics()
				_, stats, done, err := NewEngine(sys, opts).Query("D1", q, now)
				if err != nil {
					t.Fatalf("config %d %s: %v", ci, name, err)
				}
				now = done
				delta := sys.Net().Metrics().Sub(before)
				want := simnet.QueryTraffic{Messages: delta.Messages, Bytes: delta.Bytes, PerMethod: delta.PerMethod}
				if got := trafficOf(stats); !reflect.DeepEqual(got, want) {
					t.Errorf("config %d (%+v) stale=%v query %s:\nattributed %+v\ncounted    %+v",
						ci, opts, staleNode, name, got, want)
				}
				if stats.Messages == 0 {
					t.Errorf("config %d query %s: no traffic attributed", ci, name)
				}
			}
		}
	}
}

// TestOverlappingQueriesAreNotCrossCharged runs four initiators' query
// streams from four goroutines against one traced deployment and requires
// every query to report exactly the Stats it reports when its stream runs
// alone on a fresh same-seed deployment. Attribution by a diff of the
// global counters cannot pass this: whatever the other streams send
// meanwhile lands in the diff. The Gosched between rounds and the armed
// registry and ring buffer keep handlers and recorders overlapping under
// -race; tracing is zero-width, so it moves no Stats.
func TestOverlappingQueriesAreNotCrossCharged(t *testing.T) {
	const rounds = 12
	streams := []struct {
		initiator simnet.Addr
		query     string
		opts      Options
	}{
		{"D1", paperQueries["fig4-full"], DefaultOptions()},
		{"D2", paperQueries["fig8-union"], DefaultOptions()},
		{"D3", paperQueries["fig7-optional"], BaselineOptions()},
		{"D4", paperQueries["fig9-filter-optional"], BaselineOptions()},
	}
	// The subtest names the delivery the fabric runs: serial, in send
	// order — the only delivery simnet has.
	t.Run("ConcurrentDelivery=false", func(t *testing.T) {
		build := func() (*overlay.System, simnet.VTime) {
			return buildSystemConfig(t, 5, paperData(), overlay.Config{Bits: 16, Replication: 2,
				Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
		}
		// run executes one stream: the same query, rounds times, each
		// round starting where the previous one completed.
		run := func(sys *overlay.System, now simnet.VTime, si int) ([]Stats, error) {
			st := streams[si]
			e := NewEngine(sys, st.opts)
			var out []Stats
			for r := 0; r < rounds; r++ {
				_, stats, done, err := e.Query(st.initiator, st.query, now)
				if err != nil {
					return nil, fmt.Errorf("stream %d round %d: %w", si, r, err)
				}
				out, now = append(out, stats), done
				runtime.Gosched()
			}
			return out, nil
		}

		alone := make([][]Stats, len(streams))
		for si := range streams {
			sys, now := build()
			var err error
			if alone[si], err = run(sys, now, si); err != nil {
				t.Fatal(err)
			}
		}

		sys, now := build()
		sys.Net().SetRecorder(trace.Tee(trace.NewRegistry(), trace.NewRingBuffer(64)))
		before := sys.Net().Metrics()
		together := make([][]Stats, len(streams))
		errs := make([]error, len(streams))
		var wg sync.WaitGroup
		for si := range streams {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				together[si], errs[si] = run(sys, now, si)
			}(si)
		}
		wg.Wait()
		var sum simnet.QueryTraffic
		for si := range streams {
			if errs[si] != nil {
				t.Fatal(errs[si])
			}
			for r := range together[si] {
				got, want := together[si][r], alone[si][r]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stream %d round %d cross-charged:\noverlapped %+v\nalone      %+v", si, r, got, want)
				}
				sum.Messages += got.Messages
				sum.Bytes += got.Bytes
			}
		}
		// Nothing is lost either: the queries' shares add up to what
		// the fabric counted.
		if delta := sys.Net().Metrics().Sub(before); sum.Messages != delta.Messages || sum.Bytes != delta.Bytes {
			t.Errorf("attributed %d msgs / %d bytes, fabric counted %d / %d",
				sum.Messages, sum.Bytes, delta.Messages, delta.Bytes)
		}
	})
}

// TestBareDescribeStagesAndSolutions: a DESCRIBE without WHERE goes through
// the same context and Stats assembly as every other form — it emits
// query.stage flight events under its own trace identifier.
func TestBareDescribeStagesAndSolutions(t *testing.T) {
	sys, now := buildSystem(t, 4, paperData())
	mon := overlay.Arm(sys, 0)
	res, stats, _, err := NewEngine(sys, DefaultOptions()).Query("D1", `DESCRIBE <http://example.org/bob>`, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 4 || stats.Solutions != len(res.Solutions) {
		t.Errorf("describe: %d triples, Stats.Solutions=%d", len(res.Triples), stats.Solutions)
	}
	stages := 0
	for _, e := range mon.Recorder().NodeEvents("D1") {
		if e.Kind == "query.stage" {
			stages++
			if e.Query == 0 {
				t.Errorf("stage event without a trace identifier: %+v", e)
			}
		}
	}
	if stages == 0 {
		t.Error("bare DESCRIBE emitted no query.stage events")
	}
	if vs := mon.CheckAll(); len(vs) != 0 {
		t.Errorf("monitors: %v", vs)
	}
}

// TestRoutedReadStagesAndIndexBytes: a routed read's forwards are the
// resolve stage and its owners' replies the lookup stage, so the stage
// profile still splits the index layer; every one of its legs is index
// traffic (Stats.IndexBytes), and no chord.* leg is left in a query.
func TestRoutedReadStagesAndIndexBytes(t *testing.T) {
	sys, now := buildSystem(t, 6, paperData())
	rec := trace.NewBuffer()
	sys.Net().SetRecorder(rec)
	_, stats, _, err := NewEngine(sys, DefaultOptions()).Query("D1", paperQueries["fig4-full"], now)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	var bytes int64
	for _, sp := range rec.Spans() {
		if sp.Name == overlay.MethodRoutedRead {
			stages[StageOf(sp)]++
			bytes += int64(sp.Bytes)
		}
	}
	if stages[StageResolve] == 0 || stages[StageLookup] == 0 || len(stages) != 2 {
		t.Errorf("routed-read spans by stage %v, want forwards under %s and replies under %s", stages, StageResolve, StageLookup)
	}
	read := stats.PerMethod[overlay.MethodRoutedRead]
	if read.Bytes != bytes || stats.IndexBytes() != bytes {
		t.Errorf("IndexBytes %d, routed-read traffic %d B, its spans %d B; want all equal", stats.IndexBytes(), read.Bytes, bytes)
	}
	for m := range stats.PerMethod {
		if strings.HasPrefix(m, "chord.") {
			t.Errorf("the query sent %s", m)
		}
	}
}
