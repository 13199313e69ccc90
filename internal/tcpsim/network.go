package tcpsim

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PacketEvent describes one segment put on a link, reported to the
// network's packet hook at transmission time (like a tcpdump capture at
// the sender's interface). The embedded Window is the link's report of
// an accepted segment's serialization and arrival; it is zero for a
// dropped one.
type PacketEvent struct {
	Time      sim.Time
	Seg       Segment
	WireBytes int
	Dropped   bool
	Retrans   bool
	// Link names the link the segment was put on.
	Link string
	netem.Window
}

// Network is a set of hosts joined by point-to-point paths.
type Network struct {
	Sim *sim.Simulator
	// PacketHook, if non-nil, observes every transmitted segment.
	PacketHook func(ev PacketEvent)
	// Obs, if non-nil, receives connection lifecycle events (state
	// transitions, cwnd changes, Nagle holds, RTO fires, retransmits)
	// from every connection on the network.
	Obs *obs.Bus

	hosts map[string]*Host
	paths []pathEntry

	// flights pools in-flight delivery records so that transmitting a
	// segment allocates nothing once the pool is warm.
	flights []*flight

	// arena holds the bytes the connections' send queues copy.
	arena arena

	packets     int64
	rtoTimeouts int64
}

// flight carries one accepted segment from transmit to delivery.
type flight struct {
	dst *Host
	seg Segment
	net *Network
}

// deliverFlight is the link-delivery thunk: it recycles the flight
// before handing the segment to the destination host.
func deliverFlight(a any) {
	f := a.(*flight)
	dst, seg := f.dst, f.seg
	f.dst, f.seg = nil, Segment{}
	f.net.flights = append(f.net.flights, f)
	if dst != nil {
		dst.receive(seg)
	}
}

type pathEntry struct {
	a, b string
	path *netem.Path
}

// NewNetwork returns an empty network on simulator s.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{Sim: s, hosts: make(map[string]*Host)}
}

// AddHost creates a host with the given name.
func (n *Network) AddHost(name string) *Host {
	if _, dup := n.hosts[name]; dup {
		panic("tcpsim: duplicate host " + name)
	}
	h := &Host{
		name:      name,
		net:       n,
		listeners: make(map[int]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  10000,
	}
	n.hosts[name] = h
	return h
}

// ConnectHosts joins hosts a and b with path p; p.AB carries a→b traffic.
func (n *Network) ConnectHosts(a, b *Host, p *netem.Path) {
	n.paths = append(n.paths, pathEntry{a: a.name, b: b.name, path: p})
}

// Packets returns the total number of segments transmitted (including
// retransmissions and dropped segments).
func (n *Network) Packets() int64 { return n.packets }

// RTOTimeouts returns the total number of retransmission-timer
// expirations across all connections the network has carried, including
// connections already torn down.
func (n *Network) RTOTimeouts() int64 { return n.rtoTimeouts }

func (n *Network) link(from, to string) *netem.Link {
	for _, e := range n.paths {
		if e.a == from && e.b == to {
			return e.path.AB
		}
		if e.b == from && e.a == to {
			return e.path.BA
		}
	}
	return nil
}

// transmit sends a segment onto the appropriate link and arranges delivery
// at the destination host.
func (n *Network) transmit(seg Segment, retrans bool) {
	l := n.link(seg.From.Host, seg.To.Host)
	if l == nil {
		panic(fmt.Sprintf("tcpsim: no path from %s to %s", seg.From.Host, seg.To.Host))
	}
	n.packets++
	wire := seg.WireBytes()
	dst := n.hosts[seg.To.Host]
	var f *flight
	if k := len(n.flights); k > 0 {
		f = n.flights[k-1]
		n.flights = n.flights[:k-1]
	} else {
		f = &flight{net: n}
	}
	f.dst, f.seg = dst, seg
	win, accepted := l.Transmit(seg.Payload, wire, deliverFlight, f)
	if !accepted {
		f.dst, f.seg = nil, Segment{}
		n.flights = append(n.flights, f)
	}
	if n.PacketHook != nil {
		n.PacketHook(PacketEvent{
			Time:      n.Sim.Now(),
			Seg:       seg,
			WireBytes: wire,
			Dropped:   !accepted,
			Retrans:   retrans,
			Link:      l.Name(),
			Window:    win,
		})
	}
}

// Host is a network endpoint able to listen and dial.
type Host struct {
	name      string
	net       *Network
	listeners map[int]*Listener
	conns     map[connKey]*Conn
	nextPort  int
	dials     int64
}

type connKey struct {
	localPort  int
	remoteHost string
	remotePort int
}

// Dials returns how many outbound connections the host has opened.
func (h *Host) Dials() int64 { return h.dials }

// Listener accepts inbound connections on a port.
type Listener struct {
	host *Host
	port int
	opts Options
	// accept builds the Handler for each new connection. It runs at SYN
	// time; the handler's OnConnect fires when the handshake completes.
	accept func(c *Conn) Handler
	closed bool
}

// Close stops accepting new connections.
func (l *Listener) Close() { l.closed = true }

// Listen registers a listener on port. accept is invoked for each inbound
// SYN and must return the Handler for the new connection.
func (h *Host) Listen(port int, opts Options, accept func(c *Conn) Handler) *Listener {
	if _, dup := h.listeners[port]; dup {
		panic(fmt.Sprintf("tcpsim: %s port %d already listening", h.name, port))
	}
	l := &Listener{host: h, port: port, opts: opts.normalize(), accept: accept}
	h.listeners[port] = l
	return l
}

// Dial opens a connection to remote host/port. The returned Conn is in
// SYN_SENT; handler.OnConnect fires when it is established.
func (h *Host) Dial(remoteHost string, remotePort int, opts Options, handler Handler) *Conn {
	h.dials++
	local := Addr{Host: h.name, Port: h.nextPort}
	h.nextPort++
	c := newConn(h, local, Addr{Host: remoteHost, Port: remotePort}, opts.normalize(), handler)
	h.conns[c.key()] = c
	c.startConnect()
	return c
}

// receive dispatches an arriving segment to its connection, a listener,
// or answers it with RST.
func (h *Host) receive(seg Segment) {
	key := connKey{localPort: seg.To.Port, remoteHost: seg.From.Host, remotePort: seg.From.Port}
	if c, ok := h.conns[key]; ok {
		c.onSegment(seg)
		return
	}
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if l, ok := h.listeners[seg.To.Port]; ok && !l.closed {
			c := newConn(h, seg.To, seg.From, l.opts, nil)
			c.handler = l.accept(c)
			h.conns[c.key()] = c
			c.onSynReceived(seg)
			return
		}
	}
	// No socket for this segment: answer with RST (unless it is itself a
	// reset). This is what makes pipelined requests arriving after a full
	// server close destroy the connection, per the paper.
	if seg.Flags&FlagRST == 0 {
		rst := Segment{
			From:  seg.To,
			To:    seg.From,
			Seq:   seg.Ack,
			Ack:   seg.Seq + uint32(len(seg.Payload)),
			Flags: FlagRST | FlagACK,
		}
		h.net.transmit(rst, false)
	}
}

func (h *Host) removeConn(c *Conn) {
	delete(h.conns, c.key())
}
