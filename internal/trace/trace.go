// Package trace captures simulated packets and computes the statistics the
// paper reports for every run: packets (Pa), payload bytes (Bytes), elapsed
// seconds (Sec), and TCP/IP header overhead (%ov). It fills the role that
// tcpdump, tcpshow, and xplot played in the original study.
package trace

import (
	"fmt"
	"io"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Capture observes the packets of a tcpsim.Network. It always keeps a
// running tally per directed host pair, which is all Stats needs; the
// packet events themselves (≈80 KB for a page load) are kept, for
// Events, Dump, TimeSequence and WritePcap, only if Attach was told to.
type Capture struct {
	events []tcpsim.PacketEvent
	links  []linkTally // in order of first packet; four on a proxy run
	retain bool
}

// linkTally is the Stats of the packets one host sent to another,
// Connections counting its SYNs.
type linkTally struct {
	from, to string
	Stats
}

// Attach installs the capture as the network's packet hook, replacing
// any hook there; retain keeps the events as well as the tallies.
func Attach(n *tcpsim.Network, retain bool) *Capture {
	c := &Capture{retain: retain}
	n.PacketHook = c.record
	return c
}

func (c *Capture) record(ev tcpsim.PacketEvent) {
	if c.retain {
		c.events = append(c.events, ev)
	}
	from, to := ev.Seg.From.Host, ev.Seg.To.Host
	i := 0
	for i < len(c.links) && (c.links[i].from != from || c.links[i].to != to) {
		i++
	}
	if i == len(c.links) {
		c.links = append(c.links, linkTally{from: from, to: to, Stats: Stats{First: ev.Time}})
	}
	l := &c.links[i]
	l.Packets++
	l.PayloadBytes += int64(len(ev.Seg.Payload))
	l.WireBytes += int64(ev.WireBytes)
	if ev.Retrans {
		l.Retransmissions++
	}
	if ev.Dropped {
		l.Dropped++
	}
	if ev.Seg.Flags&tcpsim.FlagSYN != 0 && ev.Seg.Flags&tcpsim.FlagACK == 0 {
		l.Connections++
	}
	l.Last = ev.Time
}

// Events returns the captured packet events in transmission order, nil
// for a capture attached without retention.
func (c *Capture) Events() []tcpsim.PacketEvent { return c.events }

// Len returns the number of retained events. With Packet it makes the
// capture the obs.Packets a run's timeline draws its link tracks from.
func (c *Capture) Len() int { return len(c.events) }

// Packet returns the i-th retained event as the timeline draws it.
func (c *Capture) Packet(i int) obs.Packet {
	ev := &c.events[i]
	return obs.Packet{Link: ev.Link, Bytes: ev.WireBytes, Dropped: ev.Dropped,
		At: ev.Time, Start: ev.Start, Done: ev.Done, Arrive: ev.Arrive}
}

// Stats summarizes a capture in the paper's terms.
type Stats struct {
	// Packets is the total number of segments transmitted in both
	// directions, including retransmissions and dropped segments (a
	// client-side tcpdump sees the original transmission of everything
	// on a point-to-point path).
	Packets int
	// ClientToServer and ServerToClient split Packets by direction.
	ClientToServer, ServerToClient int
	// PayloadBytes is the total TCP payload carried (HTTP headers and
	// bodies), both directions.
	PayloadBytes int64
	// WireBytes adds the 40-byte TCP/IP header per packet.
	WireBytes int64
	// Retransmissions and Dropped count pathological segments.
	Retransmissions, Dropped int
	// Connections is the number of SYNs from the client (sockets used).
	Connections int
	// First and Last bound the capture in virtual time.
	First, Last sim.Time
}

// OverheadPct is the paper's %ov: header bytes as a percentage of total
// bytes on the wire.
func (s Stats) OverheadPct() float64 {
	hdr := float64(s.Packets * netem.IPTCPHeaderBytes) // integer product: nothing to fuse into the sum
	total := float64(s.PayloadBytes) + hdr
	if total == 0 {
		return 0
	}
	return 100 * hdr / total
}

// Elapsed is the capture duration, first to last packet.
func (s Stats) Elapsed() sim.Duration { return s.Last.Sub(s.First) }

// Stats computes summary statistics, treating clientHost as the
// measurement point for direction labelling.
func (c *Capture) Stats(clientHost string) Stats { return c.StatsBetween(clientHost, "") }

// StatsBetween restricts the summary to packets exchanged between the
// two named hosts (every packet when serverHost is ""), labelling
// direction from clientHost's point of view. In a multi-hop topology
// (client → proxy → origin) this is the tcpdump placed on one link:
// StatsBetween("client", "proxy") sees the last mile,
// StatsBetween("proxy", "server") the upstream side. Packets are tallied
// in virtual-time order, so the earliest First and the latest Last among
// the pairs bound the capture.
func (c *Capture) StatsBetween(clientHost, serverHost string) Stats {
	var s Stats
	for _, l := range c.links {
		fromClient := l.from == clientHost
		if serverHost != "" && !(fromClient && l.to == serverHost) &&
			!(l.from == serverHost && l.to == clientHost) {
			continue
		}
		if s.Packets == 0 || l.First < s.First {
			s.First = l.First
		}
		s.Last = max(s.Last, l.Last)
		s.Packets += l.Packets
		s.PayloadBytes += l.PayloadBytes
		s.WireBytes += l.WireBytes
		s.Retransmissions += l.Retransmissions
		s.Dropped += l.Dropped
		if fromClient {
			s.ClientToServer += l.Packets
			s.Connections += l.Connections
		} else {
			s.ServerToClient += l.Packets
		}
	}
	return s
}

// Dump writes a tcpdump-style text rendering of the capture.
func (c *Capture) Dump(w io.Writer) error {
	for _, ev := range c.events {
		seg := ev.Seg
		var note string
		if ev.Dropped {
			note = " [dropped]"
		} else if ev.Retrans {
			note = " [retransmission]"
		}
		var span string
		if n := len(seg.Payload); n > 0 || seg.Flags&(tcpsim.FlagSYN|tcpsim.FlagFIN) != 0 {
			span = fmt.Sprintf(" %d:%d(%d)", seg.Seq, seg.Seq+uint32(len(seg.Payload)), n)
		}
		var ack string
		if seg.Flags&tcpsim.FlagACK != 0 {
			ack = fmt.Sprintf(" ack %d", seg.Ack)
		}
		_, err := fmt.Fprintf(w, "%012.6f %s > %s: %s%s%s win %d%s\n",
			ev.Time.Seconds(),
			seg.From, seg.To, seg.Flags, span, ack, seg.Wnd, note)
		if err != nil {
			return err
		}
	}
	return nil
}

// SeqPoint is one point of an xplot-style time-sequence diagram.
type SeqPoint struct {
	Time    sim.Time
	SeqLo   uint32
	SeqHi   uint32
	Kind    string // "data", "ack", "retransmit", "syn", "fin", "rst"
	Dropped bool
}

// TimeSequence extracts the time-sequence series for packets sent from
// fromHost, the raw material of the xplot graphs the authors used to find
// implementation bugs.
func (c *Capture) TimeSequence(fromHost string) []SeqPoint {
	var pts []SeqPoint
	for _, ev := range c.events {
		if ev.Seg.From.Host != fromHost {
			continue
		}
		p := SeqPoint{
			Time:    ev.Time,
			SeqLo:   ev.Seg.Seq,
			SeqHi:   ev.Seg.Seq + uint32(len(ev.Seg.Payload)),
			Dropped: ev.Dropped,
		}
		switch {
		case ev.Seg.Flags&tcpsim.FlagRST != 0:
			p.Kind = "rst"
		case ev.Seg.Flags&tcpsim.FlagSYN != 0:
			p.Kind = "syn"
		case ev.Seg.Flags&tcpsim.FlagFIN != 0:
			p.Kind = "fin"
		case ev.Retrans:
			p.Kind = "retransmit"
		case len(ev.Seg.Payload) > 0:
			p.Kind = "data"
		default:
			p.Kind = "ack"
		}
		pts = append(pts, p)
	}
	return pts
}
