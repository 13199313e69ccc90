// Package tcpsim implements a TCP state machine over simulated links.
//
// It models the TCP behaviours that the paper's measurements depend on:
// three-way handshake, slow start and congestion avoidance, the delayed
// acknowledgement heartbeat, the Nagle algorithm (and TCP_NODELAY),
// MSS segmentation, sliding-window flow control, go-back-N retransmission,
// independent half-close of each connection direction, and RST generation
// when data arrives for a closed endpoint — the failure mode behind the
// paper's pipelining connection-management scenario.
//
// Applications attach to connections through callback Handlers and run on
// the same deterministic virtual clock (package sim) as the network.
package tcpsim

import (
	"errors"
	"fmt"

	"repro/internal/netem"
)

// Flags is the set of TCP header flags the simulator models.
type Flags uint8

// TCP header flags.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

// String renders the flags tcpdump-style, e.g. "S.", "P.", "F.", "R".
func (f Flags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagRST != 0 {
		s += "R"
	}
	if f&FlagPSH != 0 {
		s += "P"
	}
	if f&FlagACK != 0 {
		s += "."
	}
	if s == "" {
		s = "-"
	}
	return s
}

// Addr identifies one endpoint of a connection.
type Addr struct {
	Host string
	Port int
}

// String formats the address as host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// Segment is a TCP segment on the wire.
type Segment struct {
	From, To Addr
	Seq, Ack uint32
	Flags    Flags
	Wnd      int
	Payload  []byte
}

// WireBytes is the segment's IP-level size: 40 bytes of TCP/IP headers
// plus the payload (no TCP options are modeled).
func (s *Segment) WireBytes() int { return netem.IPTCPHeaderBytes + len(s.Payload) }

// State is a TCP connection state.
type State int

// TCP connection states (RFC 793 names).
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1",
	"FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

// String returns the RFC 793 state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Errors surfaced to application handlers.
var (
	// ErrConnectionReset reports that the peer sent RST; any data in
	// flight or buffered is lost, and the application cannot tell which
	// of its writes were received.
	ErrConnectionReset = errors.New("tcpsim: connection reset by peer")
	// ErrConnectionAborted reports a local abort.
	ErrConnectionAborted = errors.New("tcpsim: connection aborted")
	// ErrWriteAfterClose reports a Write after CloseWrite.
	ErrWriteAfterClose = errors.New("tcpsim: write after close")
	// ErrTimeout reports too many retransmission timeouts.
	ErrTimeout = errors.New("tcpsim: connection timed out")
)

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in 32-bit sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// Handler receives connection events. All callbacks run synchronously on
// the simulator goroutine; they may call Conn methods freely. A long-lived
// endpoint, such as an HTTP connection's state machine, implements Handler
// itself, which costs nothing per connection beyond the endpoint; Callbacks
// adapts optional funcs, for tests and ad-hoc endpoints.
type Handler interface {
	// OnConnect fires when the connection reaches ESTABLISHED.
	OnConnect(c *Conn)
	// OnData delivers in-order payload bytes as they arrive. The slice
	// aliases the sender's send queue, which may be a body the sender
	// queued by reference with CorkRef: it is read-only, and only valid
	// for the duration of the call, so copy it if it must be retained.
	OnData(c *Conn, data []byte)
	// OnPeerClose fires when the peer's FIN is received (EOF): all of the
	// peer's data has been delivered.
	OnPeerClose(c *Conn)
	// OnClose fires exactly once when the connection is fully torn down.
	OnClose(c *Conn)
	// OnError fires on RST, abort, or timeout, before OnClose.
	OnError(c *Conn, err error)
}

// Callbacks adapts optional funcs to Handler; nil fields are no-ops. Each
// func set is typically a closure or method value, allocated per
// connection, which is why long-lived endpoints implement Handler instead.
type Callbacks struct {
	Connect   func(c *Conn)
	Data      func(c *Conn, data []byte)
	PeerClose func(c *Conn)
	Close     func(c *Conn)
	Error     func(c *Conn, err error)
}

// OnConnect implements Handler.
func (cb *Callbacks) OnConnect(c *Conn) {
	if cb.Connect != nil {
		cb.Connect(c)
	}
}

// OnData implements Handler.
func (cb *Callbacks) OnData(c *Conn, data []byte) {
	if cb.Data != nil {
		cb.Data(c, data)
	}
}

// OnPeerClose implements Handler.
func (cb *Callbacks) OnPeerClose(c *Conn) {
	if cb.PeerClose != nil {
		cb.PeerClose(c)
	}
}

// OnClose implements Handler.
func (cb *Callbacks) OnClose(c *Conn) {
	if cb.Close != nil {
		cb.Close(c)
	}
}

// OnError implements Handler.
func (cb *Callbacks) OnError(c *Conn, err error) {
	if cb.Error != nil {
		cb.Error(c, err)
	}
}
