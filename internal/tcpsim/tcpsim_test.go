package tcpsim

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// testNet builds a two-host network joined by a configurable path.
func testNet(t testing.TB, cfg netem.Config) (*sim.Simulator, *Network, *Host, *Host) {
	t.Helper()
	s := sim.New()
	s.SetEventLimit(5_000_000)
	n := NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))
	return s, n, client, server
}

// wanCfg approximates the paper's WAN: 1.5 Mbit/s, 45 ms one-way.
func wanCfg() netem.Config {
	return netem.Config{
		BitsPerSecond:    1_500_000,
		PropagationDelay: 45 * time.Millisecond,
		MTU:              1500,
	}
}

// fastCfg is a near-instant link for logic-only tests.
func fastCfg() netem.Config {
	return netem.Config{PropagationDelay: 100 * time.Microsecond}
}

// echoServer accepts connections and echoes all received data, closing its
// write side when the peer closes.
func echoServer(h *Host, port int) {
	h.Listen(port, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data:      func(c *Conn, d []byte) { c.Write(d) },
			PeerClose: func(c *Conn) { c.CloseWrite() },
		}
	})
}

func TestHandshakeEstablishesBothSides(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	var clientUp, serverUp bool
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{Connect: func(c *Conn) { serverUp = true }}
	})
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { clientUp = true },
	})
	s.Run()
	if !clientUp || !serverUp {
		t.Fatalf("clientUp=%v serverUp=%v, want both true", clientUp, serverUp)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	echoServer(server, 80)
	msg := []byte("hello, 1997")
	var got []byte
	var eof bool
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(msg)
			c.CloseWrite()
		},
		Data:      func(c *Conn, d []byte) { got = append(got, d...) },
		PeerClose: func(c *Conn) { eof = true },
	})
	s.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if !eof {
		t.Fatal("client never saw peer close")
	}
}

func TestConnectionFullLifecyclePacketCount(t *testing.T) {
	s, n, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{PeerClose: func(c *Conn) { c.CloseWrite() }}
	})
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.CloseWrite() },
	})
	s.Run()
	// SYN, SYN-ACK, ACK, FIN, ACK-of-FIN, FIN, ACK-of-FIN = 7 segments.
	if got := n.Packets(); got != 7 {
		t.Fatalf("lifecycle used %d packets, want 7", got)
	}
}

func TestRequestResponsePacketCount(t *testing.T) {
	// A single small HTTP/1.0-style exchange where the server closes:
	// the paper's revalidation profile is ~8 packets per connection.
	s, n, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				c.Write(make([]byte, 200)) // response headers
				c.Close()                  // HTTP/1.0 server closes after response
			},
		}
	})
	done := false
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect:   func(c *Conn) { c.Write(make([]byte, 150)) },
		PeerClose: func(c *Conn) { done = true; c.CloseWrite() },
	})
	s.Run()
	if !done {
		t.Fatal("client never got the response EOF")
	}
	got := n.Packets()
	if got < 7 || got > 9 {
		t.Fatalf("exchange used %d packets, want 7..9", got)
	}
}

func TestStateProgression(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	var srvConn *Conn
	server.Listen(80, Options{}, func(c *Conn) Handler {
		srvConn = c
		return &Callbacks{PeerClose: func(c *Conn) { c.CloseWrite() }}
	})
	cli := client.Dial("server", 80, Options{}, &Callbacks{})
	if cli.State() != StateSynSent {
		t.Fatalf("dial state = %v, want SYN_SENT", cli.State())
	}
	runFor(s, 10*time.Millisecond)
	if cli.State() != StateEstablished || srvConn.State() != StateEstablished {
		t.Fatalf("states after handshake: %v / %v", cli.State(), srvConn.State())
	}
	cli.CloseWrite()
	s.Run()
	if cli.State() != StateClosed {
		t.Fatalf("client final state = %v, want CLOSED", cli.State())
	}
	if srvConn.State() != StateClosed {
		t.Fatalf("server final state = %v, want CLOSED", srvConn.State())
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	s, _, client, server := testNet(t, wanCfg())
	const size = 200_000
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				c.Write(payload)
				c.CloseWrite()
			},
		}
	})
	var got []byte
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect:   func(c *Conn) { c.Write([]byte("GET")) },
		Data:      func(c *Conn, d []byte) { got = append(got, d...) },
		PeerClose: func(c *Conn) { c.CloseWrite() },
	})
	s.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), size)
	}
}

func TestSlowStartGrowsCwnd(t *testing.T) {
	s, _, client, server := testNet(t, wanCfg())
	var srvConn *Conn
	server.Listen(80, Options{}, func(c *Conn) Handler {
		srvConn = c
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				c.Write(make([]byte, 100_000))
				c.CloseWrite()
			},
		}
	})
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect:   func(c *Conn) { c.Write([]byte("GET")) },
		PeerClose: func(c *Conn) { c.CloseWrite() },
	})
	s.Run()
	if srvConn.Cwnd() <= 2*1460 {
		t.Fatalf("cwnd = %d after 100KB, want growth beyond initial %d", srvConn.Cwnd(), 2*1460)
	}
}

func TestSlowStartPacesTransfer(t *testing.T) {
	// On a high-latency link, a 64-segment response needs ~5-6 RTT-spaced
	// window doublings from IW=2: 2,4,8,16,32,64.
	s, _, client, server := testNet(t, netem.Config{
		BitsPerSecond:    100_000_000, // so serialization is negligible
		PropagationDelay: 50 * time.Millisecond,
		MTU:              1500,
	})
	size := 64 * 1460
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				c.Write(make([]byte, size))
				c.CloseWrite()
			},
		}
	})
	var done sim.Time
	var start sim.Time
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			start = s.Now()
			c.Write([]byte("GET"))
		},
		PeerClose: func(c *Conn) {
			done = s.Now()
			c.CloseWrite()
		},
	})
	s.Run()
	elapsed := done.Sub(start)
	rtt := 100 * time.Millisecond
	// Request RTT + window-growth rounds. With ACKs every other segment,
	// cwnd grows by one MSS per ACK, so growth is ~1.5x per round and a
	// 64-segment response needs ~8 rounds from IW=2 (the classic
	// delayed-ACK slow-start tax). Anything inside 5..9 RTT is sane;
	// a bandwidth-bound or stalled transfer would fall far outside.
	if elapsed < 5*rtt || elapsed > 9*rtt {
		t.Fatalf("64-segment transfer took %v, want ~8 RTT", elapsed)
	}
}

func TestNagleHoldsSecondSmallWrite(t *testing.T) {
	s, n, client, server := testNet(t, wanCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var dataSegs []sim.Time
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 {
			dataSegs = append(dataSegs, ev.Time)
		}
	}
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 100))
			c.Write(make([]byte, 100)) // should be Nagle-delayed until ACK
		},
	})
	runFor(s, 2*time.Second)
	if len(dataSegs) != 2 {
		t.Fatalf("saw %d data segments, want 2", len(dataSegs))
	}
	gap := dataSegs[1].Sub(dataSegs[0])
	if gap < 90*time.Millisecond {
		t.Fatalf("second small segment went out after %v; Nagle should hold it ~1 RTT", gap)
	}
}

func TestNoDelayDisablesNagle(t *testing.T) {
	s, n, client, server := testNet(t, wanCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var dataSegs []sim.Time
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 {
			dataSegs = append(dataSegs, ev.Time)
		}
	}
	client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 100))
			c.Write(make([]byte, 100))
		},
	})
	runFor(s, 2*time.Second)
	if len(dataSegs) != 2 {
		t.Fatalf("saw %d data segments, want 2", len(dataSegs))
	}
	if gap := dataSegs[1].Sub(dataSegs[0]); gap > 10*time.Millisecond {
		t.Fatalf("TCP_NODELAY second segment delayed %v, want immediate", gap)
	}
}

func TestDelayedAckHeartbeat(t *testing.T) {
	s, n, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var pureAcks []sim.Time
	var dataAt sim.Time
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 && ev.Seg.From.Host == "client" {
			dataAt = ev.Time
		}
		if len(ev.Seg.Payload) == 0 && ev.Seg.Flags == FlagACK && ev.Seg.From.Host == "server" && dataAt > 0 {
			pureAcks = append(pureAcks, ev.Time)
		}
	}
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.Write(make([]byte, 100)) },
	})
	runFor(s, time.Second)
	if len(pureAcks) != 1 {
		t.Fatalf("saw %d pure ACKs for one segment, want 1 (delayed)", len(pureAcks))
	}
	delay := pureAcks[0].Sub(dataAt)
	if delay < time.Millisecond || delay > 200*time.Millisecond {
		t.Fatalf("delayed ACK after %v, want within (0, 200ms]", delay)
	}
	// Heartbeat style: fires on a 200ms boundary.
	if pureAcks[0]%sim.Time(200*time.Millisecond) != 0 {
		t.Fatalf("delayed ACK at %v, want a 200ms boundary", pureAcks[0])
	}
}

func TestAckEverySecondSegmentImmediate(t *testing.T) {
	s, n, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var ackAt, secondDataAt sim.Time
	dataCount := 0
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 && ev.Seg.From.Host == "client" {
			dataCount++
			if dataCount == 2 {
				secondDataAt = ev.Time
			}
		}
		if len(ev.Seg.Payload) == 0 && ev.Seg.From.Host == "server" && dataCount == 2 && ackAt == 0 {
			ackAt = ev.Time
		}
	}
	client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) { c.Write(make([]byte, 2*1460)) },
	})
	runFor(s, time.Second)
	if ackAt == 0 {
		t.Fatal("no ACK after two segments")
	}
	if gap := ackAt.Sub(secondDataAt); gap > 5*time.Millisecond {
		t.Fatalf("ACK of 2nd segment delayed %v, want immediate", gap)
	}
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			PeerClose: func(c *Conn) {
				// Client closed its write half; we can still respond.
				c.Write([]byte("late response"))
				c.CloseWrite()
			},
		}
	})
	var got []byte
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.CloseWrite() },
		Data:    func(c *Conn, d []byte) { got = append(got, d...) },
	})
	s.Run()
	if string(got) != "late response" {
		t.Fatalf("got %q after half-close, want %q", got, "late response")
	}
}

func TestNaiveServerCloseResetsPipeline(t *testing.T) {
	// The paper's connection-management scenario: the server fully closes
	// (both halves) after serving some requests while the client still has
	// pipelined requests in flight. The late requests hit a closed port,
	// draw RST, and the client loses responses without knowing which.
	s, _, client, server := testNet(t, wanCfg())
	served := 0
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				for i := 0; i < len(d); i++ {
					if d[i] == '\n' {
						served++
						c.Write([]byte("response\n"))
						if served == 2 {
							c.Close() // naive: closes read side too
							return
						}
					}
				}
			},
		}
	})
	var clientErr error
	responses := 0
	cli := client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write([]byte("req1\n"))
		},
		Data: func(c *Conn, d []byte) {
			for i := 0; i < len(d); i++ {
				if d[i] == '\n' {
					responses++
					if responses == 1 {
						// Pipeline more requests; some will arrive after
						// the server's close.
						c.Write([]byte("req2\n"))
						s.Schedule(300*time.Millisecond, func() {
							c.Write([]byte("req3\nreq4\n"))
						})
					}
				}
			}
		},
		Error: func(c *Conn, err error) { clientErr = err },
	})
	s.Run()
	if clientErr != ErrConnectionReset {
		t.Fatalf("client error = %v, want ErrConnectionReset", clientErr)
	}
	if responses >= 4 {
		t.Fatalf("client got %d responses; late ones should be lost", responses)
	}
	if cli.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED", cli.State())
	}
}

func TestGracefulServerCloseNoReset(t *testing.T) {
	// Same scenario but the server only closes its write half and drains:
	// no RST, the client sees a clean EOF after the served responses.
	s, _, client, server := testNet(t, wanCfg())
	served := 0
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				for i := 0; i < len(d); i++ {
					if d[i] == '\n' {
						served++
						c.Write([]byte("response\n"))
						if served == 2 {
							c.CloseWrite() // graceful half close
						}
					}
				}
			},
		}
	})
	var clientErr error
	eof := false
	client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) { c.Write([]byte("req1\nreq2\nreq3\n")) },
		PeerClose: func(c *Conn) {
			eof = true
			c.CloseWrite()
		},
		Error: func(c *Conn, err error) { clientErr = err },
	})
	s.Run()
	if clientErr != nil {
		t.Fatalf("unexpected client error: %v", clientErr)
	}
	if !eof {
		t.Fatal("client never saw EOF")
	}
}

func TestDialToClosedPortGetsReset(t *testing.T) {
	s, _, client, _ := testNet(t, fastCfg())
	var gotErr error
	client.Dial("server", 81, Options{}, &Callbacks{
		Error: func(c *Conn, err error) { gotErr = err },
	})
	s.Run()
	if gotErr != ErrConnectionReset {
		t.Fatalf("error = %v, want ErrConnectionReset", gotErr)
	}
}

func TestWriteAfterCloseErrors(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	echoServer(server, 80)
	var writeErr error
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.CloseWrite()
			writeErr = c.Write([]byte("x"))
		},
	})
	s.Run()
	if writeErr != ErrWriteAfterClose {
		t.Fatalf("Write after close = %v, want ErrWriteAfterClose", writeErr)
	}
}

func TestAbortSendsRST(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	var srvErr error
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{Error: func(c *Conn, err error) { srvErr = err }}
	})
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write([]byte("x"))
			c.Abort()
		},
	})
	s.Run()
	if srvErr != ErrConnectionReset {
		t.Fatalf("server error = %v, want ErrConnectionReset", srvErr)
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	cfg := wanCfg()
	drop := map[int]bool{5: true, 9: true}
	cfg.Loss = func(i, _ int) bool { return drop[i] }
	s, _, client, server := testNet(t, cfg)
	const size = 30_000
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data: func(c *Conn, d []byte) {
				c.Write(payload)
				c.CloseWrite()
			},
		}
	})
	var got []byte
	done := false
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect:   func(c *Conn) { c.Write([]byte("GET")) },
		Data:      func(c *Conn, d []byte) { got = append(got, d...) },
		PeerClose: func(c *Conn) { done = true; c.CloseWrite() },
	})
	s.Run()
	if !done {
		t.Fatal("transfer never completed under loss")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted transfer under loss: got %d bytes want %d", len(got), size)
	}
}

func TestSynLossRecovered(t *testing.T) {
	cfg := fastCfg()
	cfg.Loss = func(i, _ int) bool { return i == 0 } // drop the first SYN
	s, _, client, server := testNet(t, cfg)
	echoServer(server, 80)
	connected := false
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { connected = true; c.CloseWrite() },
	})
	s.Run()
	if !connected {
		t.Fatal("connection never established after SYN loss")
	}
}

func TestConnectionTimeoutAfterTotalLoss(t *testing.T) {
	cfg := fastCfg()
	cfg.Loss = func(i, _ int) bool { return true }
	s, _, client, _ := testNet(t, cfg)
	var gotErr error
	client.Dial("server", 80, Options{MaxRetries: 3}, &Callbacks{
		Error: func(c *Conn, err error) { gotErr = err },
	})
	s.Run()
	if gotErr != ErrTimeout {
		t.Fatalf("error = %v, want ErrTimeout", gotErr)
	}
}

// TestRTOBackoffReachesCap follows a SYN under total loss through the
// whole backoff: the timer doubles from the 1 s initial RTO to the 64 s
// cap and stays there, and the default MaxRetries (10) ends the
// connection with ErrTimeout one capped RTO after the 10th retry.
func TestRTOBackoffReachesCap(t *testing.T) {
	cfg := fastCfg()
	cfg.Loss = func(i, _ int) bool { return true }
	s, n, client, _ := testNet(t, cfg)
	var sends []sim.Time
	n.PacketHook = func(ev PacketEvent) {
		if ev.Seg.Flags&FlagSYN != 0 {
			sends = append(sends, ev.Time)
		}
	}
	var gotErr error
	var errAt sim.Time
	client.Dial("server", 80, Options{}, &Callbacks{
		Error: func(c *Conn, err error) { gotErr, errAt = err, s.Now() },
	})
	s.Run()
	want := []time.Duration{1, 2, 4, 8, 16, 32, 64, 64, 64, 64}
	if len(sends) != len(want)+1 {
		t.Fatalf("%d SYNs sent, want %d (the first and 10 retries)", len(sends), len(want)+1)
	}
	for i, w := range want {
		if gap := sends[i+1].Sub(sends[i]); gap != w*time.Second {
			t.Errorf("retry %d sent %v after the previous SYN, want %v", i+1, gap, w*time.Second)
		}
	}
	if gotErr != ErrTimeout {
		t.Fatalf("error = %v, want ErrTimeout", gotErr)
	}
	if gap := errAt.Sub(sends[len(sends)-1]); gap != maxRTO {
		t.Fatalf("ErrTimeout %v after the last retry, want %v", gap, maxRTO)
	}
}

// TestMSSSegmentation checks that a 5000-byte write leaves as full
// 1460-byte segments and one remainder.
func TestMSSSegmentation(t *testing.T) {
	s, n, client, server := testNet(t, fastCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var sizes []int
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 {
			sizes = append(sizes, len(ev.Seg.Payload))
		}
	}
	client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 5000))
			c.CloseWrite()
		},
	})
	s.Run()
	if want := []int{1460, 1460, 1460, 620}; !slices.Equal(sizes, want) {
		t.Fatalf("segment payloads %v, want %v", sizes, want)
	}
}

func TestPeerWindowLimitsInFlight(t *testing.T) {
	s, _, client, server := testNet(t, netem.Config{PropagationDelay: 20 * time.Millisecond})
	var received int64
	server.Listen(80, Options{RecvWindow: 4096}, func(c *Conn) Handler {
		return &Callbacks{Data: func(c *Conn, d []byte) { received += int64(len(d)) }}
	})
	cli := client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 100_000))
			c.CloseWrite()
		},
	})
	// After the first burst, in-flight bytes must not exceed the peer's
	// 4096-byte window.
	runFor(s, 30*time.Millisecond)
	if got := cli.Unacked(); got > 4096+1 { // +1 for a FIN sequence slot
		t.Fatalf("in-flight %d bytes exceeds peer window 4096", got)
	}
	s.Run()
	if received != 100_000 {
		t.Fatalf("server received %d bytes, want 100000", received)
	}
}

func TestSegmentFlagsString(t *testing.T) {
	cases := []struct {
		f    Flags
		want string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "S."},
		{FlagACK, "."},
		{FlagFIN | FlagACK, "F."},
		{FlagRST | FlagACK, "R."},
		{FlagPSH | FlagACK, "P."},
		{0, "-"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Flags(%b).String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestAddrAndStateString(t *testing.T) {
	a := Addr{Host: "h", Port: 80}
	if a.String() != "h:80" {
		t.Fatalf("Addr.String() = %q", a.String())
	}
	if StateEstablished.String() != "ESTABLISHED" {
		t.Fatalf("state name = %q", StateEstablished.String())
	}
	if State(99).String() != "State(99)" {
		t.Fatalf("unknown state = %q", State(99).String())
	}
}

func TestHostBookkeeping(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	echoServer(server, 80)
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.CloseWrite() },
	})
	s.Run()
	if client.Dials() != 1 {
		t.Fatalf("Dials = %d, want 1", client.Dials())
	}
	if client.OpenConns() != 0 || server.OpenConns() != 0 {
		t.Fatalf("open conns after teardown: client %d server %d", client.OpenConns(), server.OpenConns())
	}
}

func TestListenerCloseRefusesNewConns(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	l := server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	l.Close()
	var gotErr error
	client.Dial("server", 80, Options{}, &Callbacks{
		Error: func(c *Conn, err error) { gotErr = err },
	})
	s.Run()
	if gotErr != ErrConnectionReset {
		t.Fatalf("dial to closed listener: %v, want reset", gotErr)
	}
}

// Property: the byte stream delivered to the receiver is exactly the
// concatenation of the sender's writes, for arbitrary write sizing, with
// and without packet loss.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(chunks []uint16, lossEvery uint8) bool {
		var payload []byte
		for i, n := range chunks {
			chunk := make([]byte, int(n)%4096)
			for j := range chunk {
				chunk[j] = byte(i + j)
			}
			payload = append(payload, chunk...)
		}
		cfg := wanCfg()
		if lossEvery >= 5 {
			k := int(lossEvery)
			cfg.Loss = func(i, _ int) bool { return i%k == k-1 }
		}
		s := sim.New()
		s.SetEventLimit(10_000_000)
		n := NewNetwork(s)
		client := n.AddHost("client")
		server := n.AddHost("server")
		n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))

		var got []byte
		okEOF := false
		server.Listen(80, Options{}, func(c *Conn) Handler {
			return &Callbacks{
				Data:      func(c *Conn, d []byte) { got = append(got, d...) },
				PeerClose: func(c *Conn) { okEOF = true; c.CloseWrite() },
			}
		})
		client.Dial("server", 80, Options{}, &Callbacks{
			Connect: func(c *Conn) {
				off := 0
				for _, n := range chunks {
					size := int(n) % 4096
					c.Write(payload[off : off+size])
					off += size
				}
				c.CloseWrite()
			},
		})
		s.Run()
		return okEOF && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total packets on the wire is at least the minimum required by
// the payload size and never absurdly larger in loss-free runs.
func TestPropertyPacketEconomy(t *testing.T) {
	f := func(kb uint8) bool {
		size := (int(kb)%64 + 1) * 1024
		s := sim.New()
		s.SetEventLimit(10_000_000)
		n := NewNetwork(s)
		client := n.AddHost("client")
		server := n.AddHost("server")
		cfg := wanCfg()
		n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))
		server.Listen(80, Options{}, func(c *Conn) Handler {
			return &Callbacks{Data: func(c *Conn, d []byte) {
				c.Write(make([]byte, size))
				c.CloseWrite()
			}}
		})
		done := false
		client.Dial("server", 80, Options{}, &Callbacks{
			Connect:   func(c *Conn) { c.Write([]byte("GET")) },
			PeerClose: func(c *Conn) { done = true; c.CloseWrite() },
		})
		s.Run()
		if !done {
			return false
		}
		minData := int64(size/1460) + 1
		total := n.Packets()
		// Data segments + handshake/teardown + ACKs; generous upper bound
		// is data*2 (ack every other) + 10.
		return total >= minData && total <= 2*minData+12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSRTTConvergesToPathRTT(t *testing.T) {
	s, _, client, server := testNet(t, wanCfg())
	echoServer(server, 80)
	var cli *Conn
	sent := 0
	var send func(c *Conn)
	send = func(c *Conn) {
		if sent >= 20 {
			c.CloseWrite()
			return
		}
		sent++
		c.Write(make([]byte, 64))
	}
	cli = client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) { send(c) },
		Data:    func(c *Conn, d []byte) { send(c) },
	})
	s.Run()
	srtt := cli.SRTT()
	// Path RTT is 90ms + serialization; the estimator must land nearby.
	if srtt < 80*time.Millisecond || srtt > 150*time.Millisecond {
		t.Fatalf("SRTT = %v, want ≈90-120ms", srtt)
	}
}

func TestFastRetransmitBeatsRTO(t *testing.T) {
	// Drop one mid-stream data segment; three dup ACKs should trigger
	// recovery well before the 1s RTO.
	cfg := wanCfg()
	dropped := false
	cfg.Loss = func(i, wire int) bool {
		if !dropped && wire > 1000 && i > 6 {
			dropped = true
			return true
		}
		return false
	}
	s, n, client, server := testNet(t, cfg)
	const size = 60_000
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{Data: func(c *Conn, d []byte) {
			c.Write(make([]byte, size))
			c.CloseWrite()
		}}
	})
	var done sim.Time
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect:   func(c *Conn) { c.Write([]byte("GET")) },
		PeerClose: func(c *Conn) { done = s.Now(); c.CloseWrite() },
	})
	s.Run()
	if !dropped {
		t.Fatal("loss never injected")
	}
	retrans := 0
	_ = n
	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	// Without fast retransmit the stall would be ≥1s (the min RTO); with
	// it, recovery adds roughly one extra RTT.
	if done > sim.Time(3*time.Second) {
		t.Fatalf("transfer took %v; fast retransmit did not engage", done)
	}
	_ = retrans
}

func TestSetNoDelayReleasesHeldSegment(t *testing.T) {
	s, n, client, server := testNet(t, wanCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var dataTimes []sim.Time
	n.PacketHook = func(ev PacketEvent) {
		if len(ev.Seg.Payload) > 0 {
			dataTimes = append(dataTimes, ev.Time)
		}
	}
	var cli *Conn
	cli = client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 100))
			c.Write(make([]byte, 100)) // held by Nagle
			s.Schedule(10*time.Millisecond, func() { cli.SetNoDelay(true) })
		},
	})
	runFor(s, 2*time.Second)
	if len(dataTimes) != 2 {
		t.Fatalf("data segments = %d, want 2", len(dataTimes))
	}
	gap := dataTimes[1].Sub(dataTimes[0])
	if gap < 9*time.Millisecond || gap > 20*time.Millisecond {
		t.Fatalf("second segment after %v, want ≈10ms (released by SetNoDelay)", gap)
	}
}

func TestTimeWaitReAcksFin(t *testing.T) {
	// Drop the client's final ACK of the server FIN; the server
	// retransmits its FIN and the client, now in TIME_WAIT, must re-ACK.
	cfg := fastCfg()
	var finAcks int
	seen := 0
	cfg.Loss = func(i, wire int) bool {
		return false
	}
	s, n, client, server := testNet(t, cfg)
	n.PacketHook = func(ev PacketEvent) {
		if ev.Seg.Flags&FlagFIN != 0 {
			seen++
		}
		if ev.Seg.From.Host == "client" && ev.Seg.Flags == FlagACK && seen >= 2 {
			finAcks++
		}
	}
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{PeerClose: func(c *Conn) { c.CloseWrite() }}
	})
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.CloseWrite() },
	})
	s.Run()
	if finAcks == 0 {
		t.Fatal("no ACK of the server FIN observed")
	}
}

func TestBufferedSendAndUnackedAccounting(t *testing.T) {
	s, _, client, server := testNet(t, wanCfg())
	server.Listen(80, Options{}, func(c *Conn) Handler { return &Callbacks{} })
	var cli *Conn
	cli = client.Dial("server", 80, Options{NoDelay: true}, &Callbacks{
		Connect: func(c *Conn) {
			c.Write(make([]byte, 5000))
		},
	})
	// After the handshake (~90ms) but before the first data ACKs return
	// (~180ms), the initial window's worth of data is in flight.
	runFor(s, 120*time.Millisecond)
	if got := cli.Unacked(); got < 2920 {
		t.Fatalf("Unacked = %d, want ≥ 2 segments in flight", got)
	}
	if cli.TotalWritten() != 5000 {
		t.Fatalf("TotalWritten = %d", cli.TotalWritten())
	}
	s.Run()
	if cli.Unacked() != 0 && cli.State() != StateClosed {
		// After the run everything is acknowledged.
		t.Fatalf("Unacked = %d at quiescence", cli.Unacked())
	}
}

func TestSegmentsSentReceivedCounters(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	echoServer(server, 80)
	var cli *Conn
	cli = client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) { c.Write([]byte("hello")); c.CloseWrite() },
	})
	s.Run()
	if cli.SegmentsSent() < 3 || cli.SegmentsReceived() < 3 {
		t.Fatalf("segment counters: sent %d rcvd %d", cli.SegmentsSent(), cli.SegmentsReceived())
	}
}
