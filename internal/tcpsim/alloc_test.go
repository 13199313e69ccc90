package tcpsim

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestSteadyStatePacketPathAllocs pins the zero-alloc discipline of the
// wire path: on an established connection with a warm timer arena and
// flight pool, pushing a bulk transfer through the network must not
// allocate per packet. The budget tolerates the copy each 2 MB Write
// makes (a Write that large gets an allocation of its own rather than
// arena space) amortized over thousands of segments; a copy or closure
// on the per-segment path would blow it by orders of magnitude.
func TestSteadyStatePacketPathAllocs(t *testing.T) {
	const payloadLen = 2_000_000
	payload := make([]byte, payloadLen)

	s := sim.New()
	n := NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{BitsPerSecond: 100_000_000, PropagationDelay: 5 * time.Millisecond, MTU: 1500}
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))

	var srvConn *Conn
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{Data: func(c *Conn, d []byte) { srvConn = c }}
	})
	var got int64
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.Write([]byte("GET")) },
		Data:    func(c *Conn, d []byte) { got += int64(len(d)) },
	})
	s.Run() // handshake + request; the connection stays open
	if srvConn == nil {
		t.Fatal("request never reached the server")
	}

	// Each run pushes the whole payload and drains the simulator: data
	// segments, ACK clocking, delayed-ACK and RTO timer churn. The
	// warm-up run AllocsPerRun performs doubles as pool warm-up.
	const runs = 4
	before := n.Packets()
	allocs := testing.AllocsPerRun(runs, func() {
		srvConn.Write(payload)
		s.Run()
	})
	packets := n.Packets() - before

	if want := int64(payloadLen) * (runs + 1); got != want {
		t.Fatalf("client received %d bytes, want %d", got, want)
	}
	perRunPackets := float64(packets) / (runs + 1)
	if perRunPackets < 1000 {
		t.Fatalf("each transfer used %.0f packets, expected thousands", perRunPackets)
	}
	if perPacket := allocs / perRunPackets; perPacket > 0.01 {
		t.Errorf("steady-state path allocated %.1f times over %.0f packets (%.4f/packet), want ~0",
			allocs, perRunPackets, perPacket)
	}
}
