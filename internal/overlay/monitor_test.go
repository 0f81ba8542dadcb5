package overlay

// Mutation tests for the live invariant monitors: each test injects the
// exact corruption its monitor exists to catch and asserts a typed
// violation whose incident report names the offending nodes. A clean
// deployment must stay violation-free under every monitor.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"adhocshare/internal/chord"
	"adhocshare/internal/flight"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// newMonitoredSystem builds a small adaptive deployment with monitors
// armed before publication, so the event stream covers the publish
// traffic too.
func newMonitoredSystem(t *testing.T, nIndex, nStorage int) (*System, *Monitors, simnet.VTime) {
	t.Helper()
	s := NewSystem(Config{Bits: 16, Replication: 2, Adaptive: true,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < nIndex; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	mon := Arm(s, 64)
	for i := 0; i < nStorage; i++ {
		addr := simnet.Addr(fmt.Sprintf("D%02d", i))
		if _, done, err := s.AddStorageNode(addr, now); err != nil {
			t.Fatal(err)
		} else {
			now = done
		}
		done, err := s.Publish(addr, []rdf.Triple{
			{S: ex(fmt.Sprintf("alice%d", i)), P: fp("name"), O: rdf.NewLiteral("Alice Smith")},
			{S: ex(fmt.Sprintf("alice%d", i)), P: fp("knows"), O: ex("bob")},
		}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	return s, mon, now
}

// promoteHotKey looks up one published key from D00 until the detector
// promotes it (hotThreshold lookups), and fails the test unless one more
// lookup is a replica hit.
func promoteHotKey(t *testing.T, s *System, now simnet.VTime) simnet.VTime {
	t.Helper()
	tr := rdf.Triple{S: ex("alice0"), P: fp("name"), O: rdf.NewLiteral("Alice Smith")}
	key := TripleKeys(tr, s.Config().Bits)[KeyP]
	client := NewLookupClient(s)
	var row LookupRow
	for i := 0; i <= hotThreshold; i++ {
		var err error
		row, now, err = client.Lookup("D00", key, trace.TraceContext{}, trace.TraceContext{}, now)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !row.ReplicaHit {
		t.Fatalf("lookup %d of key %v was not a replica hit", hotThreshold+1, key)
	}
	return now
}

func TestMonitorsCleanDeployment(t *testing.T) {
	_, mon, _ := newMonitoredSystem(t, 4, 3)
	if vs := mon.CheckAll(); len(vs) != 0 {
		t.Fatalf("clean deployment reported violations: %v", vs)
	}
	if mon.Recorder().Total() == 0 {
		t.Fatal("armed recorder captured no events over publication traffic")
	}
}

// requireViolation asserts that exactly the named monitor fired and that
// its incident report names every node in wantNodes.
func requireViolation(t *testing.T, mon *Monitors, vs []flight.Violation, monitor string, wantNodes ...string) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("monitor %s did not fire", monitor)
	}
	for _, v := range vs {
		if v.Monitor != monitor {
			t.Fatalf("unexpected monitor %s fired: %v", v.Monitor, v)
		}
	}
	inc := mon.Incident(monitor+" violation", vs, 8)
	var buf bytes.Buffer
	if err := inc.Write(&buf); err != nil {
		t.Fatalf("incident write: %v", err)
	}
	report := buf.String()
	if !strings.Contains(report, monitor) {
		t.Fatalf("incident report does not name monitor %s:\n%s", monitor, report)
	}
	for _, n := range wantNodes {
		if !strings.Contains(report, n) {
			t.Fatalf("incident report does not name offending node %s:\n%s", n, report)
		}
	}
}

func TestMonitorRingFiresOnPredecessorCorruption(t *testing.T) {
	s, mon, now := newMonitoredSystem(t, 4, 1)
	nodes := s.IndexNodes() // sorted by ring ID
	victim := nodes[1].Addr()
	bogus := nodes[3]
	// Deliver a hostile set_predecessor through the real fabric: nodes[1]
	// now claims nodes[3] as predecessor, so pred(succ(nodes[0])) is wrong.
	if _, _, err := s.Net().Call(bogus.Addr(), victim, chord.MethodSetPredecessor,
		chord.Ref{ID: bogus.ID(), Addr: bogus.Addr()}, now); err != nil {
		t.Fatal(err)
	}
	requireViolation(t, mon, mon.CheckRing(), flight.MonitorRing, string(victim))
}

func TestMonitorCoverageFiresOnDroppedRow(t *testing.T) {
	s, mon, _ := newMonitoredSystem(t, 4, 2)
	// Recompute one published key's home and drop the provider's posting.
	tr := rdf.Triple{S: ex("alice0"), P: fp("name"), O: rdf.NewLiteral("Alice Smith")}
	key := TripleKeys(tr, s.Config().Bits)[KeyP]
	owner := responsibleNode(mon.liveIndex(), key)
	owner.Table.Set(key, "D00", 0)
	requireViolation(t, mon, mon.CheckCoverage(), flight.MonitorCoverage, string(owner.Addr()), "D00")
}

func TestMonitorMonotonicFiresOnInvertedInterval(t *testing.T) {
	_, mon, _ := newMonitoredSystem(t, 3, 1)
	// An event delivered out of VTime order: its interval ends before it
	// starts.
	mon.Recorder().Emit(flight.Event{Node: "idx-00", Kind: flight.KindDeliver, VT: 1000, End: 500})
	vs := mon.Recorder().CheckMonotonic()
	requireViolation(t, mon, vs, flight.MonitorMonotonic, "idx-00")
}

func TestMonitorConservationFiresOnForgedDelivery(t *testing.T) {
	_, mon, _ := newMonitoredSystem(t, 3, 1)
	if vs := mon.CheckEvents(); len(vs) != 0 {
		t.Fatalf("pre-mutation event checks failed: %v", vs)
	}
	// A forged delivery event with no accounted message behind it breaks
	// sends = deliveries + losses.
	mon.Recorder().Emit(flight.Event{Node: "idx-00", Kind: flight.KindDeliver, VT: 1, End: 2})
	vs := mon.CheckEvents()
	requireViolation(t, mon, vs, flight.MonitorConservation)
}

func TestMonitorsSurviveChurnWithoutFalsePositives(t *testing.T) {
	s, mon, now := newMonitoredSystem(t, 5, 2)
	now = promoteHotKey(t, s, now)
	// Operator churn: fail a node, stabilize the ring around it, recover
	// it, stabilize again. The ring and event monitors must track the
	// repaired state without false positives.
	victim := s.IndexNodes()[2].Addr()
	s.FailNode(victim)
	for i := 0; i < 4; i++ {
		now = s.StabilizeRound(now)
	}
	if vs := mon.CheckRing(); len(vs) != 0 {
		t.Fatalf("ring monitor false positive after fail+stabilize: %v", vs)
	}
	s.RecoverNode(victim)
	now = s.Converge(now)
	if vs := mon.CheckRing(); len(vs) != 0 {
		t.Fatalf("ring monitor false positive after recover+converge: %v", vs)
	}
	if vs := mon.CheckEvents(); len(vs) != 0 {
		t.Fatalf("event monitors false positive under churn: %v", vs)
	}
	if mon.Recorder().Count(flight.KindFail) != 1 || mon.Recorder().Count(flight.KindRecover) != 1 {
		t.Fatalf("fail/recover events not recorded: %v", mon.Recorder().Counts())
	}
	if mon.Recorder().Count(flight.KindStabilize) == 0 {
		t.Fatal("no stabilize events recorded")
	}
	if mon.Recorder().Count(flight.KindEpochBump) == 0 {
		t.Fatal("no epoch-bump events recorded")
	}
}

// A graceful leave hands the leaver's whole table to its successor, which
// under Replication 2 already holds replica copies of the leaver's primary
// rows: the handover must overwrite those copies, not sum into them, or
// every leave doubles frequencies and a later Retract can no longer bring
// a posting to zero.
func TestGracefulLeaveHandoverDoesNotDoubleCount(t *testing.T) {
	s := NewSystem(Config{Bits: 16, Replication: 2,
		Net: simnet.Config{BaseLatency: time.Millisecond, Bandwidth: 1 << 20}})
	now := simnet.VTime(0)
	for i := 0; i < 5; i++ {
		_, done, err := s.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	now = s.Converge(now)
	_, now, err := s.AddStorageNode("D1", now)
	if err != nil {
		t.Fatal(err)
	}
	var triples []rdf.Triple
	for i := 0; i < 40; i++ {
		triples = append(triples, rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: fp("knows"), O: ex(fmt.Sprintf("o%d", i%7))})
	}
	if now, err = s.Publish("D1", triples, now); err != nil {
		t.Fatal(err)
	}
	for _, leaver := range []int{1, 3} {
		if now, err = s.RemoveIndexGraceful(simnet.Addr(fmt.Sprintf("idx-%02d", leaver)), now); err != nil {
			t.Fatal(err)
		}
		if vs := Arm(s, 64).CheckCoverage(); len(vs) != 0 {
			t.Fatalf("coverage violations after idx-%02d left gracefully (first of %d): %v", leaver, len(vs), vs[0])
		}
	}
	if _, err = s.Retract("D1", triples, now); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPostings(); got != 0 {
		t.Errorf("retracting everything left %d postings behind", got)
	}
}
