// Package netem models network links: serialization delay from bandwidth,
// propagation delay, MTU, optional per-stream modem compression, and
// optional deterministic packet loss.
//
// A Link is unidirectional; a Path bundles the two directions between two
// hosts. The profiles in profiles.go correspond to Table 1 of the paper
// (LAN, WAN, PPP).
package netem

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// IPTCPHeaderBytes is the per-packet TCP/IP header overhead the paper's
// %ov metric assumes (20 bytes IPv4 + 20 bytes TCP, no options).
const IPTCPHeaderBytes = 40

// StreamCompressor models link-level data compression such as the
// V.42bis compression in 28.8k modems. It consumes the raw packet bytes in
// transmission order and returns the number of bits actually put on the
// wire for them. Implementations are stateful: the dictionary persists
// across packets of the same direction, like a modem's.
type StreamCompressor interface {
	// CompressedBits returns the on-wire size, in bits, of p.
	CompressedBits(p []byte) int
	// Reset clears the dictionary state.
	Reset()
}

// LossFunc decides whether the i-th packet (0-based, per link) is dropped.
// A nil LossFunc means no loss.
type LossFunc func(index int, wireBytes int) bool

// Config describes one direction of a link.
type Config struct {
	// BitsPerSecond is the serialization rate. Zero means infinitely fast.
	BitsPerSecond int64
	// PropagationDelay is the one-way latency added after serialization.
	PropagationDelay time.Duration
	// MTU is the maximum transmission unit in bytes (IP packet size).
	// Zero means unlimited. The TCP layer segments to MSS = MTU-40.
	MTU int
	// PerPacketOverheadBytes models link framing (e.g. PPP framing bytes)
	// added to every packet's serialization time but not to the IP-level
	// byte accounting.
	PerPacketOverheadBytes int
	// Compressor, if non-nil, compresses the byte stream for serialization
	// timing purposes (modem compression). Packet and byte accounting at
	// the IP level are unaffected.
	Compressor StreamCompressor
	// Loss, if non-nil, selects packets to drop.
	Loss LossFunc
}

// Link is one direction of a point-to-point connection. Packets are
// serialized FIFO: a packet cannot begin transmission until the previous
// one finished.
type Link struct {
	sim  *sim.Simulator
	cfg  Config
	name string

	busyUntil sim.Time
	sent      int
	dropped   int
	wireBits  int64
}

// NewLink returns a link driven by s. The name appears in traces.
func NewLink(s *sim.Simulator, name string, cfg Config) *Link {
	if cfg.MTU < 0 {
		panic("netem: negative MTU")
	}
	return &Link{sim: s, cfg: cfg, name: name}
}

// Name returns the link's trace name.
func (l *Link) Name() string { return l.name }

// Dropped returns the number of packets dropped by the loss model.
func (l *Link) Dropped() int { return l.dropped }

// WireBits returns the cumulative serialized size of all transmitted
// packets, after link compression.
func (l *Link) WireBits() int64 { return l.wireBits }

// SendArg accepts a packet for transmission. raw is the full IP packet
// content (used only by the compressor; may be nil when no compressor is
// configured); wireBytes is its IP-level size. fn(arg) runs at the
// instant the last bit arrives at the far end; with fn a package-level
// function and arg a pointer, accepting a packet allocates nothing.
// SendArg reports whether the packet was accepted (false = dropped by
// the loss model).
func (l *Link) SendArg(raw []byte, wireBytes int, fn func(any), arg any) bool {
	_, ok := l.Transmit(raw, wireBytes, fn, arg)
	return ok
}

// Window is an accepted packet's passage over a link: serialization
// starts at Start (after FIFO queueing behind earlier packets) and ends
// at Done, and the last bit reaches the far end at Arrive.
type Window struct {
	Start, Done, Arrive sim.Time
}

// Transmit is SendArg that also reports the accepted packet's window;
// a dropped packet reports false and no window. This is the form the
// TCP hot path uses, so that its packet capture records the window.
func (l *Link) Transmit(raw []byte, wireBytes int, fn func(any), arg any) (Window, bool) {
	idx := l.sent
	l.sent++
	if l.cfg.MTU > 0 && wireBytes > l.cfg.MTU {
		panic(fmt.Sprintf("netem: packet of %d bytes exceeds MTU %d on %s", wireBytes, l.cfg.MTU, l.name))
	}
	if l.cfg.Loss != nil && l.cfg.Loss(idx, wireBytes) {
		l.dropped++
		return Window{}, false
	}

	bits := int64(wireBytes+l.cfg.PerPacketOverheadBytes) * 8
	if l.cfg.Compressor != nil {
		buf := raw
		if buf == nil {
			buf = make([]byte, wireBytes)
		}
		bits = int64(l.cfg.Compressor.CompressedBits(buf))
		// Framing overhead is not compressed away.
		bits += int64(l.cfg.PerPacketOverheadBytes) * 8
	}
	l.wireBits += bits

	var ser time.Duration
	if l.cfg.BitsPerSecond > 0 {
		ser = time.Duration(bits * int64(time.Second) / l.cfg.BitsPerSecond)
	}

	start := l.sim.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start.Add(ser)
	l.busyUntil = done
	arrive := done.Add(l.cfg.PropagationDelay)
	l.sim.AtArg(arrive, fn, arg)
	return Window{Start: start, Done: done, Arrive: arrive}, true
}

// Path is a bidirectional point-to-point connection.
type Path struct {
	// AB carries packets from endpoint A to endpoint B; BA the reverse.
	AB, BA *Link
}

// Dropped returns the number of packets dropped by the loss model on
// both directions together.
func (p *Path) Dropped() int { return p.AB.Dropped() + p.BA.Dropped() }

// WireBits returns the cumulative serialized size of both directions,
// after link compression — the quantity a line monitor on the physical
// channel would count.
func (p *Path) WireBits() int64 { return p.AB.WireBits() + p.BA.WireBits() }

// NewAsymPath builds a path with independent per-direction configs.
func NewAsymPath(s *sim.Simulator, name string, ab, ba Config) *Path {
	return &Path{
		AB: NewLink(s, name+"→", ab),
		BA: NewLink(s, name+"←", ba),
	}
}
