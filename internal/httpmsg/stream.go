package httpmsg

// stream is the parsers' input buffer: a Feed pushes its bytes, the
// parser consumes from the front, and what is left when the Feed returns
// waits for the next one. A push onto an empty stream borrows the
// caller's slice instead of copying it, so bytes consumed in the same
// Feed (every complete head, every body byte) are read where TCP left
// them; settle, before Feed returns, copies only the remainder (a partial
// head or chunk-size line) into the stream's own array, which is reused
// for the life of the connection.
type stream struct {
	data []byte // unconsumed bytes: the tail of own, or the caller's slice while lent
	own  []byte
	lent bool
}

// bytes returns the unconsumed region. The slice is invalidated by the
// next push, advance or settle.
func (s *stream) bytes() []byte { return s.data }

// len returns the number of unconsumed bytes.
func (s *stream) len() int { return len(s.data) }

// push appends p to the buffer.
func (s *stream) push(p []byte) {
	if len(s.data) == 0 {
		s.data, s.lent = p, true
		return
	}
	off := len(s.own) - len(s.data)
	if off > 0 && len(s.own)+len(p) > cap(s.own) {
		// Would grow: slide the live region down first so the existing
		// array is reused whenever the consumed prefix makes room.
		s.own = s.own[:copy(s.own, s.data)]
		off = 0
	}
	s.own = append(s.own, p...)
	s.data = s.own[off:]
}

// settle ends a borrow: the caller may reuse its slice afterwards.
func (s *stream) settle() {
	if s.lent {
		s.own = append(s.own[:0], s.data...)
		s.data, s.lent = s.own, false
	}
}

// advance consumes n bytes.
func (s *stream) advance(n int) { s.data = s.data[n:] }

// reset discards all unconsumed bytes.
func (s *stream) reset() { s.data = s.data[:0] }
