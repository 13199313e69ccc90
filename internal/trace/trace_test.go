package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// runExchange performs one small request/response exchange and returns the
// capture.
func runExchange(t *testing.T) (*Capture, *sim.Simulator) {
	t.Helper()
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{PropagationDelay: time.Millisecond}
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))
	cap := Attach(n, true)

	server.Listen(80, tcpsim.Options{}, func(c *tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{
			Data: func(c *tcpsim.Conn, d []byte) {
				c.Write(make([]byte, 300))
				c.CloseWrite()
			},
			PeerClose: func(c *tcpsim.Conn) {},
		}
	})
	client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
		Connect:   func(c *tcpsim.Conn) { c.Write(make([]byte, 100)) },
		PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() },
	})
	s.Run()
	return cap, s
}

func TestStatsBasics(t *testing.T) {
	cap, _ := runExchange(t)
	st := cap.Stats("client")
	if st.Packets == 0 {
		t.Fatal("no packets captured")
	}
	if st.Packets != st.ClientToServer+st.ServerToClient {
		t.Fatalf("direction split %d+%d != total %d", st.ClientToServer, st.ServerToClient, st.Packets)
	}
	if st.PayloadBytes != 400 {
		t.Fatalf("payload bytes = %d, want 400", st.PayloadBytes)
	}
	if st.WireBytes != st.PayloadBytes+int64(st.Packets)*40 {
		t.Fatalf("wire bytes = %d, want payload+40*packets", st.WireBytes)
	}
	if st.Connections != 1 {
		t.Fatalf("connections = %d, want 1", st.Connections)
	}
	if st.Retransmissions != 0 || st.Dropped != 0 {
		t.Fatalf("unexpected pathologies: %d retrans %d dropped", st.Retransmissions, st.Dropped)
	}
	if st.Last <= st.First {
		t.Fatalf("time range [%v,%v] not increasing", st.First, st.Last)
	}
}

func TestOverheadPctFormula(t *testing.T) {
	// The paper's Table 4 HTTP/1.0 row: 510.2 packets, 216289 bytes →
	// 8.6% overhead. Verify our formula reproduces that arithmetic.
	s := Stats{Packets: 510, PayloadBytes: 216289}
	got := s.OverheadPct()
	if got < 8.4 || got > 8.8 {
		t.Fatalf("OverheadPct = %.2f, want ≈8.6", got)
	}
	var zero Stats
	if zero.OverheadPct() != 0 {
		t.Fatal("zero stats should have zero overhead")
	}
}

func TestDumpFormat(t *testing.T) {
	cap, _ := runExchange(t)
	var buf bytes.Buffer
	if err := cap.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(cap.Events()) {
		t.Fatalf("dump has %d lines for %d events", len(lines), len(cap.Events()))
	}
	if !strings.Contains(lines[0], "client:10000 > server:80: S") {
		t.Fatalf("first line should be the SYN, got %q", lines[0])
	}
	if !strings.Contains(out, "win 65535") {
		t.Fatal("dump missing window fields")
	}
}

func TestTimeSequenceKinds(t *testing.T) {
	cap, _ := runExchange(t)
	pts := cap.TimeSequence("client")
	if len(pts) == 0 {
		t.Fatal("no client points")
	}
	kinds := map[string]int{}
	for _, p := range pts {
		kinds[p.Kind]++
	}
	for _, want := range []string{"syn", "data", "ack", "fin"} {
		if kinds[want] == 0 {
			t.Errorf("no %q points in client time-sequence: %v", want, kinds)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Fatal("time-sequence out of order")
		}
	}
}

func TestResetClearsEvents(t *testing.T) {
	cap, _ := runExchange(t)
	if len(cap.Events()) == 0 {
		t.Fatal("expected events")
	}
	cap.Reset()
	if len(cap.Events()) != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestHookChaining(t *testing.T) {
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{PropagationDelay: time.Millisecond}
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))
	prior := 0
	n.PacketHook = func(ev tcpsim.PacketEvent) { prior++ }
	cap := Attach(n, true)
	server.Listen(80, tcpsim.Options{}, func(c *tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() }}
	})
	client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { c.CloseWrite() },
	})
	s.Run()
	if prior == 0 {
		t.Fatal("prior hook was not chained")
	}
	if prior != len(cap.Events()) {
		t.Fatalf("prior hook saw %d, capture saw %d", prior, len(cap.Events()))
	}
}

func TestStatsElapsed(t *testing.T) {
	st := Stats{First: sim.Time(time.Second), Last: sim.Time(3 * time.Second)}
	if st.Elapsed() != 2*time.Second {
		t.Fatalf("Elapsed = %v, want 2s", st.Elapsed())
	}
}

func TestWriteXplot(t *testing.T) {
	cap, _ := runExchange(t)
	var buf bytes.Buffer
	if err := cap.WriteXplot(&buf, "server", "test trace"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "timeval unsigned\ntitle\ntest trace\n") {
		t.Fatalf("bad header: %q", out[:40])
	}
	if !strings.Contains(out, "line ") {
		t.Fatal("no data segments plotted")
	}
	if !strings.Contains(out, "dot ") {
		t.Fatal("no ACK points plotted")
	}
	if !strings.HasSuffix(out, "go\n") {
		t.Fatal("missing final go command")
	}
	// Sequence numbers must be relative (start near zero, not at the ISS).
	for _, ln := range strings.Split(out, "\n") {
		var t0, s0, t1, s1 float64
		var color string
		if n, _ := fmt.Sscanf(ln, "line %f %f %f %f %s", &t0, &s0, &t1, &s1, &color); n == 5 {
			if s0 > 1e6 {
				t.Fatalf("absolute sequence leaked into plot: %s", ln)
			}
		}
	}
}

// A capture attached without retention reports the statistics of one
// that keeps every event, and keeps none: nothing to list, dump, plot or
// write to a pcap but the file header.
func TestTallyOnlyCapture(t *testing.T) {
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{PropagationDelay: time.Millisecond}
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))
	kept := Attach(n, true)
	tallied := Attach(n, false)
	server.Listen(80, tcpsim.Options{}, func(c *tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, d []byte) { c.Write(make([]byte, 3000)); c.CloseWrite() }}
	})
	client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
		Connect:   func(c *tcpsim.Conn) { c.Write(make([]byte, 100)) },
		PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() },
	})
	s.Run()
	if len(kept.Events()) == 0 || tallied.Events() != nil || len(tallied.TimeSequence("server")) != 0 {
		t.Fatalf("kept capture has %d events, tally-only capture %d", len(kept.Events()), len(tallied.Events()))
	}
	for _, host := range []string{"client", "server"} {
		if got, want := tallied.Stats(host), kept.Stats(host); got != want || got.Packets == 0 {
			t.Errorf("Stats(%q): tally-only %+v, retained %+v", host, got, want)
		}
	}
	if got := tallied.StatsBetween("client", "nobody"); got != (Stats{}) {
		t.Errorf("StatsBetween an absent pair = %+v, want zero", got)
	}
	var pcap bytes.Buffer
	if err := tallied.WritePcap(&pcap); err != nil || pcap.Len() != 24 {
		t.Errorf("tally-only pcap: %d bytes, err %v; want the 24-byte file header", pcap.Len(), err)
	}
	tallied.Reset()
	if got := tallied.Stats("client"); got != (Stats{}) {
		t.Errorf("Stats after Reset = %+v, want zero", got)
	}
}
