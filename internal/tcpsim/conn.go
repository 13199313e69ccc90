package tcpsim

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Conn is one endpoint of a simulated TCP connection.
type Conn struct {
	host    *Host
	local   Addr
	remote  Addr
	opts    Options
	handler Handler
	state   State
	obsID   obs.ConnID

	// Send side. sndQ holds bytes from sequence sndBase upward:
	// unacknowledged bytes first, then not-yet-transmitted bytes.
	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	sndMax     uint32
	sndBase    uint32
	sndQ       sendQueue
	corked     int             // tail bytes of sndQ that Cork and CorkRef queued and Flush has not released
	flushTimer sim.TimerHandle // a Buffer's timer (Settle)
	cwnd       int
	ssthresh   int
	peerWnd    int
	finPending bool
	finSent    bool
	finSeq     uint32
	rtoTimer   sim.TimerHandle
	rto        sim.Duration
	retries    int
	dupAcks    int

	// RTT estimation (Jacobson/Karn).
	srtt, rttvar  sim.Duration
	rttSampling   bool
	rttSampleSeq  uint32
	rttSampleTime sim.Time

	writeClosed  bool
	totalWritten int64

	// Receive side.
	irs         uint32
	rcvNxt      uint32
	readClosed  bool
	peerFin     bool
	ackOwed     int
	delackTimer sim.TimerHandle

	segsSent, segsRcvd int
	retransSegs        int
	err                error
	timeWaitTimer      sim.TimerHandle
	closeSignaled      bool

	// stallCause tracks the open obs.SendStall interval on this
	// connection (stallNone when the sender is flowing). Only ever set
	// while an event bus is attached, so the matching SendResume always
	// reaches the same bus.
	stallCause uint8
}

func newConn(h *Host, local, remote Addr, opts Options, handler Handler) *Conn {
	// Deterministic ISS derived from the endpoint tuple keeps traces
	// readable while remaining distinct per port pair.
	iss := uint32(1000 + local.Port*17 + remote.Port*13)
	c := &Conn{
		host:     h,
		local:    local,
		remote:   remote,
		opts:     opts,
		handler:  handler,
		state:    StateClosed,
		iss:      iss,
		sndUna:   iss,
		sndNxt:   iss,
		sndBase:  iss + 1,
		cwnd:     opts.InitialCwndSegments * mss,
		ssthresh: 65535,
		peerWnd:  mss, // until the peer advertises
		rto:      initialRTO,
	}
	c.sndQ.a = &h.net.arena
	if b := h.net.Obs; b != nil {
		c.obsID = b.ConnOpen(local.String(), remote.String())
		b.Cwnd(c.obsID, c.cwnd, c.ssthresh)
	}
	return c
}

func (c *Conn) key() connKey {
	return connKey{localPort: c.local.Port, remoteHost: c.remote.Host, remotePort: c.remote.Port}
}

// State returns the current TCP state.
func (c *Conn) State() State { return c.state }

// ObsID returns the connection's timeline identity (zero when the
// network has no observability bus attached).
func (c *Conn) ObsID() obs.ConnID { return c.obsID }

// setState transitions the TCP state, publishing the change to the
// network's observability bus when one is attached.
func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	if b := c.host.net.Obs; b != nil {
		b.ConnState(c.obsID, int(c.state), int(s), s.String())
	}
	c.state = s
}

// setCwnd updates the congestion window, publishing the change.
func (c *Conn) setCwnd(v int) {
	if c.cwnd == v {
		return
	}
	c.cwnd = v
	if b := c.host.net.Obs; b != nil {
		b.Cwnd(c.obsID, c.cwnd, c.ssthresh)
	}
}

// Retransmissions returns the number of segments this endpoint sent more
// than once (go-back-N resends and timer retransmits).
func (c *Conn) Retransmissions() int { return c.retransSegs }

func (c *Conn) sim() *sim.Simulator { return c.host.net.Sim }

// --- application calls ---

// Write copies p into the send buffer and transmits as much as the
// windows and Nagle allow; the caller may reuse p at once. It returns
// ErrWriteAfterClose after CloseWrite.
func (c *Conn) Write(p []byte) error {
	if c.writeClosed {
		return ErrWriteAfterClose
	}
	if c.state == StateClosed && c.err != nil {
		return c.err
	}
	c.sndQ.copyIn(p)
	c.totalWritten += int64(len(p) + c.corked)
	c.corked = 0
	c.trySend()
	return nil
}

// Cork lets marshal append a message head straight to the send buffer and
// holds those bytes back, queued but not transmitted until the next Flush,
// Write or CloseWrite: an application output buffer with its own flush
// policy. It returns the bytes queued, 0 if the connection no longer
// accepts writes. marshal must only append: it is handed the free end of
// the arena the network's send buffers share, and a head that does not
// fit there allocates its own.
func (c *Conn) Cork(marshal func(buf []byte) []byte) int {
	if !c.writable() {
		return 0
	}
	n := c.sndQ.marshal(marshal)
	c.corked += n
	return n
}

// CorkRef queues b by reference, held back like Cork's bytes: the body
// that follows a corked head goes to the wire without being copied.
// Segments alias b, and a packet capture may keep them, so the caller
// must never change b's bytes again. It returns len(b), 0 if the
// connection no longer accepts writes.
func (c *Conn) CorkRef(b []byte) int {
	if !c.writable() {
		return 0
	}
	c.sndQ.push(b)
	c.corked += len(b)
	return len(b)
}

// CorkBytes queues a copy of p, held back like Cork's bytes. It returns
// len(p), 0 if the connection no longer accepts writes.
func (c *Conn) CorkBytes(p []byte) int {
	if !c.writable() {
		return 0
	}
	c.sndQ.copyIn(p)
	c.corked += len(p)
	return len(p)
}

// writable reports whether Cork and CorkRef may queue bytes.
func (c *Conn) writable() bool {
	return !c.writeClosed && !(c.state == StateClosed && c.err != nil)
}

// Flush releases the corked bytes to the transmitter, exactly as one
// Write of them would; with nothing corked it does nothing.
func (c *Conn) Flush() {
	if c.corked > 0 {
		c.Write(nil)
	}
}

// CloseWrite half-closes the sending direction: corked bytes are flushed,
// and after all buffered data is transmitted a FIN is sent. Reading works on.
func (c *Conn) CloseWrite() {
	if c.writeClosed {
		return
	}
	c.Flush()
	c.writeClosed = true
	c.finPending = true
	c.trySend()
}

// CloseRead half-closes the receiving direction. Any data arriving
// afterwards is answered with RST, destroying the connection — the naive
// full close of both halves at once that the paper warns servers against.
func (c *Conn) CloseRead() {
	c.readClosed = true
}

// Close closes both directions at once (CloseWrite + CloseRead). A server
// that calls Close with pipelined requests still in flight will reset the
// connection when they arrive; use CloseWrite and drain instead.
func (c *Conn) Close() {
	c.CloseWrite()
	c.CloseRead()
}

// Abort sends RST and destroys the connection immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(FlagRST|FlagACK, c.sndNxt, nil, false)
	c.teardown(ErrConnectionAborted, false)
}

// --- connection establishment ---

// updateRTT folds one round-trip sample into the Jacobson estimator and
// recomputes the retransmission timeout.
func (c *Conn) updateRTT(sample sim.Duration) {
	if sample < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := sample - c.srtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar += (diff - c.rttvar) / 4
		c.srtt += (sample - c.srtt) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rto = rto
}

// takeRTTSample closes the open RTT measurement if ack covers it.
func (c *Conn) takeRTTSample(ack uint32) {
	if c.rttSampling && seqLT(c.rttSampleSeq, ack) {
		c.rttSampling = false
		c.updateRTT(c.sim().Now().Sub(c.rttSampleTime))
	}
}

// bumpSndNxt advances the next-send sequence and records the high-water
// mark, which processAck uses to validate ACKs that arrive after a
// go-back-N rollback.
func (c *Conn) bumpSndNxt(to uint32) {
	c.sndNxt = to
	if seqLT(c.sndMax, to) {
		c.sndMax = to
	}
}

func (c *Conn) startConnect() {
	c.setState(StateSynSent)
	c.rttSampling = true
	c.rttSampleSeq = c.iss
	c.rttSampleTime = c.sim().Now()
	c.bumpSndNxt(c.iss + 1)
	c.sendRaw(Segment{
		From: c.local, To: c.remote,
		Seq: c.iss, Flags: FlagSYN, Wnd: c.opts.RecvWindow,
	}, false)
	c.armRTO()
}

func (c *Conn) onSynReceived(seg Segment) {
	c.setState(StateSynRcvd)
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.peerWnd = seg.Wnd
	c.segsRcvd++
	c.bumpSndNxt(c.iss + 1)
	c.sendRaw(Segment{
		From: c.local, To: c.remote,
		Seq: c.iss, Ack: c.rcvNxt, Flags: FlagSYN | FlagACK, Wnd: c.opts.RecvWindow,
	}, false)
	c.armRTO()
}

// --- segment processing ---

func (c *Conn) onSegment(seg Segment) {
	if c.state == StateClosed {
		return
	}
	c.segsRcvd++
	if seg.Flags&FlagRST != 0 {
		c.handleRST()
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.peerWnd = seg.Wnd
			c.stopRTO()
			c.retries = 0
			c.takeRTTSample(seg.Ack)
			c.setState(StateEstablished)
			// BSD behaviour: the handshake ACK goes out before the
			// application gets a chance to write.
			c.sendAck()
			if c.handler != nil {
				c.handler.OnConnect(c)
			}
			c.trySend()
		}
		return
	case StateSynRcvd:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.peerWnd = seg.Wnd
			c.stopRTO()
			c.retries = 0
			c.setState(StateEstablished)
			if c.handler != nil {
				c.handler.OnConnect(c)
			}
			// Fall through to process any piggybacked payload/FIN.
		} else {
			return
		}
	case StateTimeWait:
		// Re-ACK retransmitted FINs.
		if seg.Flags&FlagFIN != 0 {
			c.sendAck()
		}
		return
	}

	if seg.Flags&FlagACK != 0 {
		c.processAck(seg)
		if c.state == StateClosed {
			return
		}
	}
	if len(seg.Payload) > 0 {
		c.processData(seg)
		if c.state == StateClosed {
			return
		}
	}
	if seg.Flags&FlagFIN != 0 {
		c.processFin(seg)
	}
}

func (c *Conn) handleRST() {
	c.teardown(ErrConnectionReset, true)
}

func (c *Conn) processAck(seg Segment) {
	c.peerWnd = seg.Wnd
	ack := seg.Ack
	if !seqLT(c.sndUna, ack) || !seqLE(ack, c.sndMax) {
		// Duplicate ACK: three in a row trigger fast retransmit.
		if ack == c.sndUna && c.sndNxt != c.sndUna && len(seg.Payload) == 0 && seg.Flags&(FlagFIN|FlagSYN) == 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
		return
	}
	c.sndUna = ack
	c.retries = 0
	c.dupAcks = 0

	// RTT sample per Karn's rule: only segments never retransmitted.
	c.takeRTTSample(ack)

	// Trim acknowledged payload bytes from the send buffer.
	if seqLT(c.sndBase, ack) {
		trim := int(ack - c.sndBase)
		if trim > c.sndQ.n {
			trim = c.sndQ.n // FIN/SYN sequence slots
		}
		c.sndQ.drop(trim)
		c.sndBase += uint32(trim)
	}

	if seqLT(c.sndNxt, ack) {
		// The ACK covers data beyond a go-back-N rollback point:
		// fast-forward rather than resending what the peer already has.
		c.sndNxt = ack
		if c.finPending && !c.finSent && int(c.sndNxt-c.sndBase) == c.sndQ.n+1 {
			// The rolled-back FIN is covered too: re-mark it sent.
			c.finSent = true
			c.finSeq = c.sndNxt - 1
			switch c.state {
			case StateEstablished:
				c.setState(StateFinWait1)
			case StateCloseWait:
				c.setState(StateLastAck)
			}
		}
	}

	// Congestion window growth.
	if c.cwnd < c.ssthresh {
		c.setCwnd(c.cwnd + mss) // slow start
	} else {
		inc := mss * mss / c.cwnd
		if inc < 1 {
			inc = 1
		}
		c.setCwnd(c.cwnd + inc) // congestion avoidance
	}

	if c.sndUna == c.sndNxt {
		c.stopRTO()
	} else {
		c.armRTO()
	}

	finAcked := c.finSent && seqLT(c.finSeq, ack)
	switch c.state {
	case StateFinWait1:
		if finAcked {
			c.setState(StateFinWait2)
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait()
			return
		}
	case StateLastAck:
		if finAcked {
			c.teardown(nil, false)
			return
		}
	}
	c.trySend()
}

func (c *Conn) processData(seg Segment) {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return // peer already sent FIN; ignore spurious data
	}
	if c.readClosed {
		// Data for a closed receive side: reset the connection. The
		// sender's in-flight data — and anything it cannot distinguish —
		// is lost. This reproduces the paper's early-close scenario.
		c.sendSegment(FlagRST|FlagACK, c.sndNxt, nil, false)
		c.teardown(ErrConnectionReset, false)
		return
	}
	if seg.Seq != c.rcvNxt {
		// Out of order or duplicate: immediate ACK, drop payload.
		c.sendAck()
		return
	}
	c.rcvNxt += uint32(len(seg.Payload))
	c.ackOwed++
	if c.handler != nil {
		// seg.Payload aliases the sender's queue, perhaps a body it
		// queued by reference; OnData's contract says the slice is
		// transient and read-only, so no defensive copy is needed here.
		c.handler.OnData(c, seg.Payload)
	}
	if c.state == StateClosed {
		return // handler aborted
	}
	// The handler may have written data, piggybacking our ACK.
	if c.ackOwed == 0 {
		return
	}
	if c.ackOwed >= ackEvery {
		c.sendAck()
		return
	}
	c.armDelack()
}

func (c *Conn) processFin(seg Segment) {
	finSeq := seg.Seq + uint32(len(seg.Payload))
	if finSeq != c.rcvNxt {
		c.sendAck() // out-of-order FIN
		return
	}
	if c.peerFin {
		return
	}
	c.peerFin = true
	c.rcvNxt++
	c.sendAck()
	if c.handler != nil {
		c.handler.OnPeerClose(c)
	}
	if c.state == StateClosed {
		return
	}
	switch c.state {
	case StateEstablished:
		c.setState(StateCloseWait)
	case StateFinWait1:
		if c.finSent && seqLT(c.finSeq, c.sndUna) {
			c.enterTimeWait()
		} else {
			c.setState(StateClosing)
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
}

// --- transmission ---

// trySend transmits buffered data subject to the congestion and peer
// windows, MSS segmentation, and the Nagle algorithm, and finally the FIN
// if the write side is closed and the buffer drained.
func (c *Conn) trySend() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateLastAck, StateClosing:
	default:
		return
	}
	end := c.sndQ.n - c.corked
	for !c.finSent {
		offset := int(c.sndNxt - c.sndBase)
		if offset < 0 || offset > end {
			break
		}
		pending := end - offset
		if pending <= 0 {
			break
		}
		wnd := c.cwnd
		if c.peerWnd < wnd {
			wnd = c.peerWnd
		}
		avail := wnd - int(c.sndNxt-c.sndUna)
		if avail <= 0 {
			if b := c.host.net.Obs; b != nil {
				cause := stallCwnd
				if c.peerWnd < c.cwnd {
					cause = stallRwnd
				}
				c.noteStall(b, cause, pending)
			}
			break
		}
		n := pending
		if n > mss {
			n = mss
		}
		if n > avail {
			n = avail
		}
		last := offset+n == end
		if n < mss && c.sndNxt != c.sndUna && !c.opts.NoDelay && !(c.finPending && last) {
			// Nagle: a small segment waits while data is outstanding.
			if b := c.host.net.Obs; b != nil {
				b.NagleHold(c.obsID, pending)
				c.noteStall(b, stallNagle, pending)
			}
			break
		}
		// The segment aliases the queued span its bytes lie in, or the
		// arena copy sndQ gathers when they straddle two (at most an MSS
		// per span boundary). Neither is ever written again, and the
		// capacity ends with the segment.
		payload := c.sndQ.slice(offset, n)
		flags := FlagACK
		if last {
			flags |= FlagPSH
		}
		fin := c.finPending && last
		if fin {
			flags |= FlagFIN
		}
		c.noteResume()
		retrans := seqLT(c.sndNxt, c.sndMax)
		if !retrans && !c.rttSampling {
			c.rttSampling = true
			c.rttSampleSeq = c.sndNxt
			c.rttSampleTime = c.sim().Now()
		}
		c.sendSegment(flags, c.sndNxt, payload, retrans)
		c.bumpSndNxt(c.sndNxt + uint32(n))
		if fin {
			c.markFinSent()
		}
		c.armRTO()
	}
	// Bare FIN when the buffer is fully transmitted.
	if c.finPending && !c.finSent && int(c.sndNxt-c.sndBase) >= end {
		c.noteResume()
		c.sendSegment(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.markFinSent()
		c.armRTO()
	}
}

// Send-stall causes, in obs.SendStall Note vocabulary.
const (
	stallNone  uint8 = iota
	stallNagle       // Nagle: small segment held behind unacked data
	stallCwnd        // congestion window exhausted
	stallRwnd        // peer receive window exhausted
)

var stallCauseNames = [...]string{"", "nagle", "cwnd", "rwnd"}

// noteStall opens (or re-labels) the connection's send-stall interval.
// Edge-triggered: repeated attempts blocked for the same cause publish
// nothing, so event volume stays proportional to state transitions.
func (c *Conn) noteStall(b *obs.Bus, cause uint8, pending int) {
	if c.stallCause == cause {
		return
	}
	if c.stallCause != stallNone {
		b.SendResume(c.obsID)
	}
	c.stallCause = cause
	b.SendStall(c.obsID, stallCauseNames[cause], pending)
}

// noteResume closes the open send-stall interval, if any, just before
// the sender transmits again.
func (c *Conn) noteResume() {
	if c.stallCause == stallNone {
		return
	}
	c.stallCause = stallNone
	if b := c.host.net.Obs; b != nil {
		b.SendResume(c.obsID)
	}
}

func (c *Conn) markFinSent() {
	c.finSent = true
	c.finSeq = c.sndNxt
	c.bumpSndNxt(c.sndNxt + 1)
	switch c.state {
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
}

func (c *Conn) sendSegment(flags Flags, seq uint32, payload []byte, retrans bool) {
	c.sendRaw(Segment{
		From: c.local, To: c.remote,
		Seq: seq, Ack: c.rcvNxt, Flags: flags,
		Wnd: c.opts.RecvWindow, Payload: payload,
	}, retrans)
	// Every segment we send carries our current ACK.
	c.clearAckOwed()
}

func (c *Conn) sendRaw(seg Segment, retrans bool) {
	c.segsSent++
	if retrans {
		c.retransSegs++
		if b := c.host.net.Obs; b != nil {
			b.Retransmit(c.obsID, seg.Seq, len(seg.Payload))
		}
	}
	c.host.net.transmit(seg, retrans)
}

func (c *Conn) sendAck() {
	c.sendSegment(FlagACK, c.sndNxt, nil, false)
}

func (c *Conn) clearAckOwed() {
	c.ackOwed = 0
	c.delackTimer.Stop()
}

// Package-level timer thunks: scheduling these with the connection as
// the boxed argument keeps the timer hot path allocation-free (a method
// value or closure would allocate per arm).
func connDelack(a any)   { a.(*Conn).onDelack() }
func connRTO(a any)      { a.(*Conn).onRTO() }
func connTimeWait(a any) { a.(*Conn).teardown(nil, false) }

// armDelack schedules a pure ACK at the next delayed-ACK heartbeat
// boundary, mimicking the BSD 200ms fast timer.
func (c *Conn) armDelack() {
	if c.delackTimer.Active() {
		return
	}
	interval := sim.Time(delAckInterval)
	now := c.sim().Now()
	next := (now/interval + 1) * interval
	c.delackTimer = c.sim().AtArg(next, connDelack, c)
}

func (c *Conn) onDelack() {
	if c.ackOwed > 0 && c.state != StateClosed {
		c.sendAck()
	}
}

// --- retransmission ---

func (c *Conn) armRTO() {
	// Rescheduling the live timer and re-arming a fired/stopped one both
	// consume exactly one sequence number, mirroring the old
	// stop-then-schedule pair, so event ordering is unchanged.
	if !c.rtoTimer.Reschedule(c.rto) {
		c.rtoTimer = c.sim().ScheduleArg(c.rto, connRTO, c)
	}
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

func (c *Conn) onRTO() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.host.net.rtoTimeouts++
	c.retries++
	if b := c.host.net.Obs; b != nil {
		b.RTOFire(c.obsID, c.rto, c.retries)
	}
	if c.retries > c.opts.MaxRetries {
		c.teardown(ErrTimeout, true)
		return
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}

	switch c.state {
	case StateSynSent:
		c.sendRaw(Segment{
			From: c.local, To: c.remote,
			Seq: c.iss, Flags: FlagSYN, Wnd: c.opts.RecvWindow,
		}, true)
		c.armRTO()
		return
	case StateSynRcvd:
		c.sendRaw(Segment{
			From: c.local, To: c.remote,
			Seq: c.iss, Ack: c.rcvNxt, Flags: FlagSYN | FlagACK, Wnd: c.opts.RecvWindow,
		}, true)
		c.armRTO()
		return
	}

	c.goBackN(mss)
	c.armRTO()
}

// fastRetransmit reacts to three duplicate ACKs without waiting for the
// retransmission timer (a go-back-N approximation of Reno fast recovery;
// the receiver does not buffer out-of-order data, so everything past the
// hole must be resent anyway).
func (c *Conn) fastRetransmit() {
	c.goBackN(c.ssthreshAfterLoss())
	c.armRTO()
}

func (c *Conn) ssthreshAfterLoss() int {
	inflight := int(c.sndNxt - c.sndUna)
	half := inflight / 2
	if half < 2*mss {
		half = 2 * mss
	}
	return half
}

// goBackN performs multiplicative decrease and rewinds transmission to the
// first unacknowledged byte.
func (c *Conn) goBackN(newCwnd int) {
	c.ssthresh = c.ssthreshAfterLoss()
	c.setCwnd(newCwnd)
	c.rttSampling = false // Karn's rule

	c.sndNxt = c.sndUna
	if c.finSent && !seqLT(c.finSeq, c.sndNxt) {
		// The FIN itself must be retransmitted by trySend.
		c.finSent = false
		// Reverse the state transition taken when the FIN first went out.
		switch c.state {
		case StateFinWait1, StateClosing:
			c.setState(StateEstablished)
		case StateLastAck:
			c.setState(StateCloseWait)
		}
	}
	c.trySend()
}

// --- teardown ---

func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.stopRTO()
	c.timeWaitTimer = c.sim().ScheduleArg(timeWait, connTimeWait, c)
}

func (c *Conn) teardown(err error, notifyErr bool) {
	if c.state == StateClosed {
		return
	}
	c.setState(StateClosed)
	c.err = err
	c.stopRTO()
	c.delackTimer.Stop()
	c.timeWaitTimer.Stop()
	c.host.removeConn(c)
	if c.handler != nil {
		if err != nil && notifyErr {
			c.handler.OnError(c, err)
		}
		if !c.closeSignaled {
			c.closeSignaled = true
			c.handler.OnClose(c)
		}
	}
}
