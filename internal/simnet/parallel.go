package simnet

// Result is the outcome of one branch of a parallel fan-out.
type Result[T any] struct {
	Value T
	Done  VTime
	Err   error
}

// Parallel runs branch(i) for every i in [0, n) on the caller's goroutine,
// in index order. The concurrency is virtual: every branch starts at the
// virtual time its closure captures, and the returned VTime is the
// fan-out's critical path — the max of the branch completion times
// (DESIGN §5), failed branches included, since their timeout cost is real.
// Results come back indexed by branch. For n == 0 it returns an empty slice
// and VTime 0; callers fold the result into their own clock with MaxTime.
//
// The second parameter is ignored (there are no host goroutines left to
// bound). Every production caller passes 0; the arity is pinned by the
// frozen bench/ module (bench/layers.go) until the [benchmark] PR can drop
// the argument there.
func Parallel[T any](n, _ int, branch func(i int) (T, VTime, error)) ([]Result[T], VTime) {
	out := make([]Result[T], n)
	var done VTime
	for i := 0; i < n; i++ {
		v, d, err := branch(i)
		out[i] = Result[T]{Value: v, Done: d, Err: err}
		if d > done {
			done = d
		}
	}
	return out, done
}
