package simnet

import (
	"fmt"
	"testing"
	"time"
)

// newConcurrentTestNet mirrors newTestNet with per-message server
// goroutines enabled.
func newConcurrentTestNet() *Network {
	return New(Config{
		BaseLatency: time.Millisecond, Bandwidth: 1000,
		FailTimeout: 10 * time.Millisecond, ConcurrentDelivery: true,
	})
}

// Concurrent delivery must be invisible in every simulated quantity:
// responses, completion VTimes and traffic metrics match the serial
// fabric exactly, call for call.
func TestConcurrentDeliveryMatchesSerial(t *testing.T) {
	type op struct {
		from, to Addr
		method   string
		size     int
	}
	ops := []op{
		{"a", "b", "ping", 1000},
		{"b", "a", "ping", 300},
		{"a", "a", "self", 10}, // self-calls stay inline in both modes
		{"a", "b", "notify", 64},
	}
	run := func(n *Network) ([]VTime, Snapshot) {
		n.Register("a", &echoNode{respSize: 100})
		n.Register("b", &echoNode{respSize: 500})
		var times []VTime
		now := VTime(0)
		for _, o := range ops {
			_, done, err := n.Call(o.from, o.to, o.method, Bytes(o.size), now)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, done)
			now = done
			sent, err := n.Send(o.from, o.to, o.method, Bytes(o.size), now)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, sent)
		}
		return times, n.Metrics()
	}
	serialTimes, serialMetrics := run(newTestNet())
	concTimes, concMetrics := run(newConcurrentTestNet())
	for i := range serialTimes {
		if serialTimes[i] != concTimes[i] {
			t.Errorf("op %d: done VTime %v under concurrent delivery, want %v", i, concTimes[i], serialTimes[i])
		}
	}
	if fmt.Sprintf("%+v", serialMetrics) != fmt.Sprintf("%+v", concMetrics) {
		t.Errorf("metrics diverged: concurrent %+v, serial %+v", concMetrics, serialMetrics)
	}
}

// A Parallel fan-out over a concurrent-delivery fabric: the branch results
// and join time must match the serial fabric.
func TestConcurrentDeliveryParallelMatchesSerial(t *testing.T) {
	targets := []Addr{"p", "q", "r", "s"}
	run := func(n *Network) ([]Result[Payload], VTime) {
		n.Register("src", &echoNode{})
		for _, a := range targets {
			n.Register(a, &echoNode{respSize: 200})
		}
		return Parallel(len(targets), 0, func(i int) (Payload, VTime, error) {
			return n.Call("src", targets[i], "work", Bytes(400), 0)
		})
	}
	serialRes, serialJoin := run(newTestNet())
	concRes, concJoin := run(newConcurrentTestNet())
	if serialJoin != concJoin {
		t.Errorf("join time %v under concurrent delivery, want %v", concJoin, serialJoin)
	}
	for i := range serialRes {
		if serialRes[i].Done != concRes[i].Done {
			t.Errorf("branch %d: done %v under concurrent delivery, want %v", i, concRes[i].Done, serialRes[i].Done)
		}
		if serialRes[i].Value != concRes[i].Value {
			t.Errorf("branch %d: value %v under concurrent delivery, want %v", i, concRes[i].Value, serialRes[i].Value)
		}
	}
}

// deliveryJitter is a pure function of the message coordinates: stable
// across calls, bounded, and sensitive to each coordinate (so distinct
// legs get distinct host-schedule perturbations).
func TestDeliveryJitterDeterministic(t *testing.T) {
	j := deliveryJitter("a", "b", "ping", 42)
	for i := 0; i < 100; i++ {
		if deliveryJitter("a", "b", "ping", 42) != j {
			t.Fatal("jitter is not deterministic")
		}
	}
	if j < 0 || j > 7 {
		t.Fatalf("jitter %d out of [0,8)", j)
	}
	distinct := map[int]bool{j: true}
	distinct[deliveryJitter("a", "b", "ping", 43)] = true
	distinct[deliveryJitter("a", "c", "ping", 42)] = true
	distinct[deliveryJitter("a", "b", "pong", 42)] = true
	if len(distinct) < 2 {
		t.Error("jitter ignores every message coordinate")
	}
}
