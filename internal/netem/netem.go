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

	"repro/internal/obs"
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
	// Obs, if non-nil, records every packet offered to the link: a
	// wire-drop event for a dropped one, and a wire-send event with its
	// serialization window for an accepted one.
	Obs *obs.Bus
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

// Config returns the link's configuration.
func (l *Link) Config() Config { return l.cfg }

// Sent returns the number of packets accepted for transmission (including
// dropped ones).
func (l *Link) Sent() int { return l.sent }

// Dropped returns the number of packets dropped by the loss model.
func (l *Link) Dropped() int { return l.dropped }

// WireBits returns the cumulative serialized size of all transmitted
// packets, after link compression.
func (l *Link) WireBits() int64 { return l.wireBits }

// Send accepts a packet for transmission. raw is the full IP packet
// content (used only by the compressor; may be nil when no compressor is
// configured); wireBytes is its IP-level size. deliver runs at the instant
// the last bit arrives at the far end. Send reports whether the packet
// was accepted (false = dropped by the loss model).
func (l *Link) Send(raw []byte, wireBytes int, deliver func()) bool {
	return l.SendArg(raw, wireBytes, callFunc, deliver)
}

// callFunc invokes a boxed func(); it adapts Send's closure form to the
// allocation-free SendArg path.
func callFunc(a any) { a.(func())() }

// SendArg is Send for an argument-taking delivery function: fn(arg) runs
// at the instant the last bit arrives. With fn a package-level function
// and arg a pointer, accepting a packet allocates nothing — this is the
// form the TCP hot path uses.
func (l *Link) SendArg(raw []byte, wireBytes int, fn func(any), arg any) bool {
	idx := l.sent
	l.sent++
	if l.cfg.MTU > 0 && wireBytes > l.cfg.MTU {
		panic(fmt.Sprintf("netem: packet of %d bytes exceeds MTU %d on %s", wireBytes, l.cfg.MTU, l.name))
	}
	if l.cfg.Loss != nil && l.cfg.Loss(idx, wireBytes) {
		l.dropped++
		if l.cfg.Obs != nil {
			l.cfg.Obs.WireDrop(l.name, wireBytes)
		}
		return false
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
	if l.cfg.Obs != nil {
		l.cfg.Obs.WireSend(l.name, wireBytes, start, done, arrive)
	}
	return true
}

// Path is a bidirectional point-to-point connection.
type Path struct {
	// AB carries packets from endpoint A to endpoint B; BA the reverse.
	AB, BA *Link
}

// Sent returns the number of packets accepted for transmission on both
// directions together (including dropped ones).
func (p *Path) Sent() int { return p.AB.Sent() + p.BA.Sent() }

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
