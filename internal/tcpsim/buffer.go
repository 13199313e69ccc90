package tcpsim

import "time"

// Buffer is an endpoint's output-buffer policy, the one rule for when
// the bytes it corks on a connection go out: when Size of them are
// corked, when the endpoint reports that it has no queued work, or when
// Timeout has passed since the first of them was corked (no timer when
// Timeout is zero). This is the paper's implementation lesson:
// pipelining pays only when output is buffered and flushed on purpose.
type Buffer struct {
	Size    int
	Timeout time.Duration
}

// ServerBuffer is the response buffer of the HTTP server and the proxy:
// 4 KB as in the era's servers, with no timer.
var ServerBuffer = Buffer{Size: 4096}

// A Flusher is a Handler that hears of each flush Settle or its timer
// makes, just before the corked bytes leave.
type Flusher interface {
	Flushing(c *Conn)
}

// Settle applies b to the bytes corked on c after the endpoint corked
// output; idle reports that it has no queued work.
func (c *Conn) Settle(b Buffer, idle bool) {
	switch {
	case c.corked == 0:
	case idle || c.corked >= b.Size:
		c.release()
	case b.Timeout > 0 && !c.flushTimer.Active():
		c.flushTimer = c.sim().ScheduleArg(b.Timeout, connRelease, c)
	}
}

// release flushes the corked bytes, telling a Flusher handler first.
func (c *Conn) release() {
	c.flushTimer.Stop()
	if c.corked == 0 || !c.writable() {
		return
	}
	if f, ok := c.handler.(Flusher); ok {
		f.Flushing(c)
	}
	c.Flush()
}

func connRelease(a any) { a.(*Conn).release() }
