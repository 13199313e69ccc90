package sim

// Queue is a first-in, first-out queue that keeps its array: Pop
// advances a head index rather than reslicing, so once the queue drains,
// or once most of it has been popped, pushes reuse the array instead of
// allocating a new one. The simulated hosts keep per-connection work in
// Queues: requests awaiting the CPU, requests awaiting their responses.
// The zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends x.
func (q *Queue[T]) Push(x T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		// Full, and at least half popped: slide the live items down
		// rather than grow, which keeps the move amortized O(1) a push.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, x)
}

// Pop removes and returns the oldest item. It panics if the queue is
// empty.
func (q *Queue[T]) Pop() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return x
}

// Items returns the queued items, oldest first. The slice aliases the
// queue and is valid until the next Push, Pop or Reset.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Reset empties the queue, keeping its array.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}
