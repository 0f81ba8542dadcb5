// Package boundedlog is the one bounded, scheduling-independent log
// behind the trace span buffer and the flight-recorder rings. A Log keeps
// the N largest values of a caller-supplied total order: once full, each
// Add evicts the smallest retained value (possibly the one just added), so
// the retained contents depend only on the multiset of values added, never
// on the order they arrived in — the property that keeps same-seed
// transcripts byte-identical when several client goroutines drive one
// deployment.
//
// The retained values are kept in ascending order, in a ring of limit
// slots that starts at a moving head. The taps add values nearly in that
// order, so at capacity an Add at or above the maximum overwrites the
// minimum's slot and advances the head (one compare, one store), an Add
// at or below the minimum is dropped (two compares), and any other Add
// evicts the minimum, binary-searches its place and shifts the few slots
// after it. Below capacity, and in an unbounded log, an Add appends
// or binary-inserts the same way. Readers copy the order out with
// AppendSorted and never sort. Once the ring is allocated — at SetLimit —
// Add allocates nothing.
//
// A Log is not safe for concurrent use; its owners hold their own lock.
package boundedlog

import "sort"

// Log retains the limit largest values added to it (all of them while
// limit ≤ 0).
type Log[T any] struct {
	less  func(a, b *T) bool
	limit int
	// items holds the retained values in ascending order from index head,
	// wrapping around. head is 0 unless the log is bounded and full.
	items []T
	head  int
	// pending is the value being added: less reads it in place, where a
	// pointer to Add's parameter would move every added value to the heap.
	pending T
}

// New creates a log capped at limit values under the total order less
// (limit ≤ 0 = unbounded).
func New[T any](limit int, less func(a, b *T) bool) *Log[T] {
	l := &Log[T]{less: less}
	l.SetLimit(limit)
	return l
}

// SetLimit caps the log at limit values (≤ 0 removes the cap), evicting
// the smallest retained values beyond it and preallocating room for the
// rest, so that later Adds never allocate.
func (l *Log[T]) SetLimit(limit int) {
	l.limit = limit
	if l.head != 0 {
		l.items, l.head = l.AppendSorted(make([]T, 0, len(l.items))), 0
	}
	if over := len(l.items) - limit; limit > 0 && (over > 0 || cap(l.items) < limit) {
		l.items = append(make([]T, 0, limit), l.items[max(over, 0):]...)
	}
}

// Limit returns the capacity (0 or less = unbounded).
func (l *Log[T]) Limit() int { return l.limit }

// Len reports the number of retained values.
func (l *Log[T]) Len() int { return len(l.items) }

// Reset discards every retained value and keeps the limit.
func (l *Log[T]) Reset() {
	*l = Log[T]{less: l.less, limit: l.limit}
	l.SetLimit(l.limit)
}

// Add records one value, evicting the smallest once the log is full.
func (l *Log[T]) Add(value T) {
	l.pending = value
	v := &l.pending
	n := len(l.items) // values kept besides v
	switch {
	case l.limit <= 0 || n < l.limit:
		if l.items = append(l.items, *v); n == 0 || !l.less(v, &l.items[n-1]) {
			return
		}
	case !l.less(v, &l.items[l.slot(n-1)]):
		// At or above the maximum, and so above the minimum (or equal to
		// every kept value): v takes the minimum's slot.
		l.items[l.head], l.head = *v, l.slot(1)
		return
	case !l.less(&l.items[l.head], v):
		return // at or below the minimum: v is the value evicted
	default:
		// Evict the minimum; its slot becomes the last one.
		l.head, n = l.slot(1), n-1
	}
	// v goes before the largest of the n kept values, and the slot after
	// them is free.
	lo := sort.Search(n-1, func(i int) bool { return l.less(v, &l.items[l.slot(i)]) })
	for i := n; i > lo; i-- {
		l.items[l.slot(i)] = l.items[l.slot(i-1)]
	}
	l.items[l.slot(lo)] = *v
}

// slot maps the i-th smallest retained value to its index in items.
func (l *Log[T]) slot(i int) int {
	if i += l.head; i >= len(l.items) {
		i -= len(l.items)
	}
	return i
}

// AppendSorted appends the retained values to dst in ascending order.
func (l *Log[T]) AppendSorted(dst []T) []T {
	return append(append(dst, l.items[l.head:]...), l.items[:l.head]...)
}
