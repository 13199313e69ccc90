package tcpsim

import "repro/internal/sim"

// Accessors only the tests read.

// SetNoDelay enables or disables the Nagle algorithm at runtime.
func (c *Conn) SetNoDelay(v bool) {
	c.opts.NoDelay = v
	if v {
		c.trySend()
	}
}

// Corked returns the number of bytes Cork and CorkRef are holding back.
func (c *Conn) Corked() int { return c.corked }

// Unacked returns the number of payload bytes sent but not acknowledged.
func (c *Conn) Unacked() int {
	n := int(c.sndNxt - c.sndUna)
	if n < 0 {
		return 0
	}
	return n
}

// TotalWritten returns the number of payload bytes the application wrote.
func (c *Conn) TotalWritten() int64 { return c.totalWritten }

// SegmentsSent returns the number of segments this endpoint transmitted.
func (c *Conn) SegmentsSent() int { return c.segsSent }

// SegmentsReceived returns the number of segments this endpoint received.
func (c *Conn) SegmentsReceived() int { return c.segsRcvd }

// SRTT returns the smoothed round-trip estimate (zero before the first
// sample).
func (c *Conn) SRTT() sim.Duration { return c.srtt }

// OpenConns returns the number of live connection records on the host
// (including TIME_WAIT).
func (h *Host) OpenConns() int { return len(h.conns) }

// runFor executes s's events for d of virtual time from now.
func runFor(s *sim.Simulator, d sim.Duration) { s.RunUntil(s.Now().Add(d)) }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }
