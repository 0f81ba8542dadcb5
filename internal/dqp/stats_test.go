package dqp

import (
	"strings"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
)

// TestStatsAccessors pins the derived-figure arithmetic of Stats against a
// synthetic per-method table.
func TestStatsAccessors(t *testing.T) {
	s := Stats{
		Messages: 10,
		Bytes:    1000,
		PerMethod: map[string]simnet.MethodStats{
			"chord.find":        {Messages: 3, Bytes: 90},
			"index.routed_read": {Messages: 2, Bytes: 60},
			"index.drop_node":   {Messages: 1, Bytes: 25},
			"store.match":       {Messages: 2, Bytes: 400},
			"dqp.result":        {Messages: 1, Bytes: 200},
			"overlay.unrelated": {Messages: 1, Bytes: 5},
		},
		CacheHits: 4,
	}
	if got := s.RetractionBytes(); got != 25 {
		t.Errorf("RetractionBytes = %d, want 25", got)
	}
	// drop_node counts toward the index tier too (index.* prefix).
	if got := s.IndexBytes(); got != 90+60+25 {
		t.Errorf("IndexBytes = %d, want 175", got)
	}
	if got := s.ShippedSolutionBytes(); got != 400+200 {
		t.Errorf("ShippedSolutionBytes = %d, want 600", got)
	}
	for _, frag := range []string{"cachehits=4", "msgs=10", "bytes=1000"} {
		if !strings.Contains(s.String(), frag) {
			t.Errorf("Stats.String() missing %q: %s", frag, s.String())
		}
	}
	var zero Stats
	if zero.RetractionBytes() != 0 {
		t.Error("zero Stats must report zero retraction bytes")
	}
}

// TestStatsCountsCacheHits: with lookup caching on, a repeated query's
// index resolutions are answered from the memoized location-table rows and
// counted in Stats.CacheHits.
func TestStatsCountsCacheHits(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	e := NewEngine(sys, Options{Strategy: StrategyChain, CacheLookups: true})
	_, stats1, done, err := e.Query("D1", paperQueries["fig5-primitive"], now)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHits != 0 {
		t.Errorf("first query reported %d cache hits, want 0 (cold cache)", stats1.CacheHits)
	}
	_, stats2, _, err := e.Query("D1", paperQueries["fig5-primitive"], done)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits == 0 {
		t.Error("repeated query reported no cache hits despite a warm cache")
	}
	if stats2.LookupHops != 0 {
		t.Errorf("cache hits should eliminate routing, got %d hops", stats2.LookupHops)
	}
	// An engine with caching disabled never reports hits.
	eNo := NewEngine(sys, Options{Strategy: StrategyChain})
	_, s1, d2, err := eNo.Query("D1", paperQueries["fig5-primitive"], done)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, _, err := eNo.Query("D1", paperQueries["fig5-primitive"], d2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHits != 0 || s2.CacheHits != 0 {
		t.Errorf("uncached engine reported cache hits: %d, %d", s1.CacheHits, s2.CacheHits)
	}
}

// TestStatsCountsRetractionTraffic: a query that discovers a dead storage
// node triggers the Sect. III-D retraction path, and the drop
// notifications are measurable through Stats.RetractionBytes.
func TestStatsCountsRetractionTraffic(t *testing.T) {
	data := paperData()
	sys, now := buildSystem(t, 5, data)
	sys.FailNode("D2")
	e := NewEngine(sys, Options{Strategy: StrategyChain})
	_, stats, done, err := e.Query("D1", paperQueries["fig5-primitive"], now)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaleDrops == 0 {
		t.Fatal("failed node not observed; retraction path not exercised")
	}
	if stats.RetractionBytes() == 0 {
		t.Error("retraction path produced no index.drop_node traffic")
	}
	if got := stats.PerMethod[overlay.MethodDropNode].Bytes; got != stats.RetractionBytes() {
		t.Errorf("RetractionBytes = %d, PerMethod[%s].Bytes = %d",
			stats.RetractionBytes(), overlay.MethodDropNode, got)
	}
	// Once the postings are dropped, repeat queries carry no retraction
	// traffic.
	_, stats2, _, err := e.Query("D1", paperQueries["fig5-primitive"], done)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.RetractionBytes() != 0 {
		t.Errorf("second query still retracting: %d bytes", stats2.RetractionBytes())
	}
}
