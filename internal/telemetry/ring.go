package telemetry

// Ring is a bounded ring buffer retaining the most recent Cap() values
// pushed into it — the flight recorder's retention policy. It is not
// safe for concurrent use: each simulation run owns one ring and pushes
// from the single simulation goroutine.
type Ring[T any] struct {
	buf     []T
	head    int // index of the oldest element
	n       int // live elements (≤ len(buf))
	dropped uint64
}

// NewRing returns a ring retaining the last capacity values
// (capacity < 1 is treated as 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest value once full.
func (r *Ring[T]) Push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return r.n }

// Dropped returns how many values were evicted to make room — the
// overflow count a dump reports so a truncated window is never mistaken
// for the whole run.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Snapshot returns the retained values, oldest first, as a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}
