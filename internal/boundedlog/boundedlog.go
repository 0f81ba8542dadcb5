// Package boundedlog is the one bounded, scheduling-independent log
// behind the trace span buffer and the flight-recorder rings. A Log keeps
// the N largest values of a caller-supplied total order: once full, each
// Add evicts the smallest retained value (possibly the one just added), so
// the retained contents depend only on the multiset of values added, never
// on the order they arrived in — the property that keeps same-seed
// transcripts byte-identical when several client goroutines drive one
// deployment.
//
// The retained values sit in a binary min-heap, so eviction is O(log n)
// and moves no more than one root-to-leaf path; readers that want the
// canonical order sort a copy of Items. Once the heap's backing array is
// allocated — at SetLimit — Add allocates nothing.
//
// A Log is not safe for concurrent use; its owners hold their own lock.
package boundedlog

import "sort"

// Log retains the limit largest values added to it (all of them while
// limit ≤ 0).
type Log[T any] struct {
	less  func(a, b T) bool
	limit int
	// items is a min-heap under less while bounded, and in insertion
	// order while unbounded.
	items []T
}

// New creates a log capped at limit values under the total order less
// (limit ≤ 0 = unbounded).
func New[T any](limit int, less func(a, b T) bool) *Log[T] {
	l := &Log[T]{less: less}
	l.SetLimit(limit)
	return l
}

// SetLimit caps the log at limit values (≤ 0 removes the cap), evicting
// the smallest retained values beyond it and preallocating room for the
// rest, so that later Adds never allocate.
func (l *Log[T]) SetLimit(limit int) {
	l.limit = limit
	if limit <= 0 {
		return
	}
	// Ascending order is a valid min-heap.
	sort.Slice(l.items, func(i, j int) bool { return l.less(l.items[i], l.items[j]) })
	if over := len(l.items) - limit; over > 0 || cap(l.items) < limit {
		kept := make([]T, 0, limit)
		l.items = append(kept, l.items[max(over, 0):]...)
	}
}

// Limit returns the capacity (0 or less = unbounded).
func (l *Log[T]) Limit() int { return l.limit }

// Len reports the number of retained values.
func (l *Log[T]) Len() int { return len(l.items) }

// Reset discards every retained value and keeps the limit.
func (l *Log[T]) Reset() {
	l.items = nil
	l.SetLimit(l.limit)
}

// Add records one value, evicting the smallest once the log is full.
func (l *Log[T]) Add(v T) {
	items := l.items
	switch {
	case l.limit <= 0:
		l.items = append(items, v)
	case len(items) < l.limit:
		// Sift up from a new leaf.
		items = append(items, v)
		i := len(items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !l.less(v, items[parent]) {
				break
			}
			items[i] = items[parent]
			i = parent
		}
		items[i] = v
		l.items = items
	case l.less(items[0], v):
		// Replace the smallest and sift down.
		i, n := 0, len(items)
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if child+1 < n && l.less(items[child+1], items[child]) {
				child++
			}
			if !l.less(items[child], v) {
				break
			}
			items[i] = items[child]
			i = child
		}
		items[i] = v
	}
}

// Items returns the retained values in no particular order. The slice is
// the log's own storage: copy it (and sort the copy for the canonical
// order) before the next Add, and do not modify it.
func (l *Log[T]) Items() []T { return l.items }
