package determinism

import "sync"

// Every `go` statement in non-test code is reported, however its lifecycle
// is tied and whatever it calls: fan-out goes through simnet.Parallel.

func FanOutWaitGroup(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(w func()) { // want "go statement in"
			defer wg.Done()
			w()
		}(w)
	}
	wg.Wait()
}

type node struct{}

func (node) ping(int) {}

func FanOutMethod(n node, peers []int) {
	for _, p := range peers {
		go n.ping(p) // want "go statement in"
	}
}

func SignalAsync(msgs chan string) {
	go func() { // want "go statement in"
		msgs <- "done"
	}()
}

type recorder interface{ Record(string) }

func RecordAsync(rec recorder, spans []string) {
	for _, s := range spans {
		go rec.Record(s) // want "go statement in"
	}
}
