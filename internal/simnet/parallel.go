package simnet

import "sync"

// DefaultFanout bounds how many branches of a Parallel fan-out occupy host
// goroutines at once when the caller does not choose a bound. The bound is
// a host-resource knob only: virtual time is unaffected, because every
// branch starts at the virtual time its closure captures regardless of
// when the goroutine is scheduled.
const DefaultFanout = 16

// Result is the outcome of one branch of a parallel fan-out.
type Result[T any] struct {
	Value T
	Done  VTime
	Err   error
}

// Parallel runs branch(i) for every i in [0, n) concurrently, with at most
// bound branches in flight at a time (bound <= 0 selects DefaultFanout).
// Results come back indexed by branch — never by completion order — so a
// caller that hands Parallel a deterministically ordered input gets a
// deterministic output no matter how the scheduler interleaves the
// goroutines. The returned VTime is the fan-out's critical path: the max
// of the branch completion times (DESIGN §5), failed branches included,
// since their timeout cost is real. For n == 0 it returns an empty slice
// and VTime 0; callers fold the result into their own clock with MaxTime.
func Parallel[T any](n, bound int, branch func(i int) (T, VTime, error)) ([]Result[T], VTime) {
	out := make([]Result[T], n)
	if n == 0 {
		return out, 0
	}
	if bound <= 0 {
		bound = DefaultFanout
	}
	if bound > n {
		bound = n
	}
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			v, done, err := branch(i)
			out[i] = Result[T]{Value: v, Done: done, Err: err}
		}(i)
	}
	wg.Wait()
	var done VTime
	for i := range out {
		if out[i].Done > done {
			done = out[i].Done
		}
	}
	return out, done
}
