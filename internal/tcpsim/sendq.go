package tcpsim

// arena is the append-only memory the send queues of one network copy
// bytes into: what Write is handed, the heads Cork marshals, and segments
// gathered across spans. Connections share it, so one that sends a few
// hundred bytes costs no allocation of its own. Nothing written to it is
// ever written again: a block that fills up is abandoned, not reused, and
// the spans and sent segments that alias it keep it alive.
type arena struct {
	block []byte // the current block; its len is the written part
}

// An arena block holds arenaBlock bytes, except the network's first,
// which holds arenaFirstBlock, so that a network that sends little
// allocates little. A Write of more than half of arenaBlock gets an
// allocation of its own. Cork hands marshal at least headRoom free bytes,
// room for most message heads; a larger head allocates its own.
const (
	arenaFirstBlock = 1 << 10
	arenaBlock      = 16 << 10
	headRoom        = 512
)

// room makes sure the current block has n bytes free.
func (a *arena) room(n int) {
	if cap(a.block)-len(a.block) < n {
		size := arenaBlock
		if a.block == nil {
			size = arenaFirstBlock
		}
		a.block = make([]byte, 0, max(n, size))
	}
}

// atTail reports whether b ends with the last byte written to the arena,
// so that bytes appended to the arena extend it in place.
func (a *arena) atTail(b []byte) bool {
	return len(b) > 0 && len(a.block) > 0 && &b[len(b)-1] == &a.block[len(a.block)-1]
}

// sendQueue is a connection's send buffer: the bytes from sequence
// sndBase upward, unacknowledged ones first, as an ordered list of spans.
// A span is either bytes copied into the arena or a slice the application
// queued by reference and promised never to change (CorkRef). Acknowledged
// spans are only dropped, so nothing a sent segment aliases is ever
// overwritten: packet captures that retain Segment.Payload rely on it.
type sendQueue struct {
	a     *arena
	spans [][]byte // spans[head:] are queued, oldest first
	head  int
	n     int // bytes queued
	// inline backs spans until more than two are queued, so that a
	// connection's queue costs no allocation of its own.
	inline [2][]byte
}

// copyIn copies p into the arena and queues it.
func (q *sendQueue) copyIn(p []byte) {
	switch {
	case len(p) == 0:
	case len(p) > arenaBlock/2:
		q.push(append([]byte(nil), p...))
	default:
		q.a.room(len(p))
		q.a.block = append(q.a.block, p...)
		q.appended(len(p))
	}
}

// marshal lets f append to the arena's free space, at least headRoom
// bytes, and queues what f appended. f must only append.
func (q *sendQueue) marshal(f func([]byte) []byte) int {
	q.a.room(headRoom)
	free := q.a.block[len(q.a.block):]
	out := f(free)
	switch n := len(out); {
	case n == 0:
	case cap(free) == 0 || &out[0] != &free[:1][0]:
		q.push(out) // f grew its own array, perhaps while n still fitted
	default:
		q.a.block = q.a.block[:len(q.a.block)+n]
		q.appended(n)
	}
	return len(out)
}

// appended queues the n bytes just written at the arena's tail, extending
// the last span when it ends where they begin.
func (q *sendQueue) appended(n int) {
	b := q.a.block
	end := len(b)
	if k := len(q.spans) - 1; k >= q.head {
		last := q.spans[k]
		if len(last) > 0 && end > n && &last[len(last)-1] == &b[end-n-1] {
			q.spans[k] = b[end-n-len(last) : end : end]
			q.n += n
			return
		}
	}
	q.push(b[end-n : end])
}

// push queues b as a span of its own, its capacity ending with it.
func (q *sendQueue) push(b []byte) {
	if len(b) == 0 {
		return
	}
	if q.spans == nil {
		q.spans = q.inline[:0]
	}
	if len(q.spans) == cap(q.spans) && q.head > 0 {
		// Slide the queued spans to the front rather than grow.
		k := copy(q.spans, q.spans[q.head:])
		clear(q.spans[k:])
		q.spans, q.head = q.spans[:k], 0
	}
	q.spans = append(q.spans, b[:len(b):len(b)])
	q.n += len(b)
}

// drop removes the first n queued bytes.
func (q *sendQueue) drop(n int) {
	q.n -= n
	for n > 0 {
		s := q.spans[q.head]
		if n < len(s) {
			q.spans[q.head] = s[n:]
			return
		}
		n -= len(s)
		q.spans[q.head] = nil
		q.head++
	}
	if q.head == len(q.spans) {
		q.spans, q.head = q.spans[:0], 0
	}
}

// slice returns the n queued bytes at offset off as one slice whose
// capacity ends with it. Bytes that lie in one span are that span's own.
// Bytes that straddle spans are gathered into the arena, in place after
// the first span when it ends at the arena's tail. When the copy starts
// a span, in place or at its first byte, it becomes that span, so that a
// retransmission of the segment aliases it.
func (q *sendQueue) slice(off, n int) []byte {
	i := q.head
	for off >= len(q.spans[i]) {
		off -= len(q.spans[i])
		i++
	}
	s := q.spans[i]
	if off+n <= len(s) {
		return s[off : off+n : off+n]
	}
	first := s[off:]
	inPlace := q.a.atTail(first) && cap(q.a.block)-len(q.a.block) >= n-len(first)
	if !inPlace {
		q.a.room(n)
		q.a.block = append(q.a.block, first...)
	}
	merge := inPlace || off == 0
	for need, j := n-len(first), i+1; need > 0; j++ {
		k := min(need, len(q.spans[j]))
		q.a.block = append(q.a.block, q.spans[j][:k]...)
		if merge {
			q.spans[j] = q.spans[j][k:]
		}
		need -= k
	}
	b := q.a.block
	end := len(b)
	if merge {
		q.spans[i] = b[end-n-off : end : end]
	}
	return b[end-n : end : end]
}
