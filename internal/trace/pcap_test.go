package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func TestPcapRoundTrip(t *testing.T) {
	cap, _ := runExchange(t)
	var buf bytes.Buffer
	if err := cap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ParsePcap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	evs := cap.Events()
	if len(f.Packets) != len(evs) {
		t.Fatalf("pcap has %d packets for %d events", len(f.Packets), len(evs))
	}

	// First frame is the client's SYN from 10.0.0.1 to 10.0.0.2:80.
	first := f.Packets[0]
	if first.Flags != 0x02 {
		t.Fatalf("first packet flags %#x, want bare SYN 0x02", first.Flags)
	}
	if first.SrcIP != [4]byte{10, 0, 0, 1} || first.DstIP != [4]byte{10, 0, 0, 2} {
		t.Fatalf("first packet %v → %v, want 10.0.0.1 → 10.0.0.2", first.SrcIP, first.DstIP)
	}
	if first.DstPort != 80 {
		t.Fatalf("first packet dst port %d, want 80", first.DstPort)
	}

	last := int64(-1)
	for i, pkt := range f.Packets {
		ev := evs[i]
		if pkt.TimeNanos < last {
			t.Fatalf("packet %d timestamp went backwards", i)
		}
		last = pkt.TimeNanos
		if pkt.TimeNanos != int64(ev.Time) {
			t.Fatalf("packet %d at %dns, event at %dns", i, pkt.TimeNanos, int64(ev.Time))
		}
		if pkt.Seq != ev.Seg.Seq || pkt.Ack != ev.Seg.Ack {
			t.Fatalf("packet %d seq/ack mismatch", i)
		}
		if pkt.PayloadBytes != len(ev.Seg.Payload) {
			t.Fatalf("packet %d payload %d, want %d", i, pkt.PayloadBytes, len(ev.Seg.Payload))
		}
		if want := tcpWireFlags(ev.Seg.Flags); pkt.Flags != want {
			t.Fatalf("packet %d flags %#x, want %#x", i, pkt.Flags, want)
		}
	}
}

func TestPcapIncludesDroppedPackets(t *testing.T) {
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{PropagationDelay: time.Millisecond}
	drop := cfg
	// Drop the client's first transmission (the SYN); the RTO retry gets
	// through.
	drop.Loss = func(i, wireBytes int) bool { return i == 0 }
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", drop, cfg))
	cap := Attach(n, true)
	server.Listen(80, tcpsim.Options{}, func(c *tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() }}
	})
	client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { c.CloseWrite() },
	})
	s.Run()

	dropped := 0
	for _, ev := range cap.Events() {
		if ev.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("fixture produced no drops")
	}
	var buf bytes.Buffer
	if err := cap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ParsePcap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Packets) != len(cap.Events()) {
		t.Fatalf("pcap has %d packets for %d events (drops must be included)",
			len(f.Packets), len(cap.Events()))
	}
}

func TestParsePcapRejectsCorruption(t *testing.T) {
	cap, _ := runExchange(t)
	var buf bytes.Buffer
	if err := cap.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[0:], 0xa1b2c3d4) // microsecond magic
	if _, err := ParsePcap(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}

	bad = append([]byte(nil), good...)
	bad[24+16+30] ^= 0xff // flip a byte inside the first frame's TCP header
	if _, err := ParsePcap(bad); err == nil {
		t.Fatal("corrupted TCP checksum accepted")
	}

	if _, err := ParsePcap(good[:len(good)-3]); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// syntheticCapture is n segments between a few hosts with payloads of
// every length 0..1460 residue, enough to cross several write chunks.
func syntheticCapture(n int) *Capture {
	c := &Capture{}
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	hosts := []string{"client", "server", "proxy"}
	for i := 0; i < n; i++ {
		c.events = append(c.events, tcpsim.PacketEvent{
			Time: sim.Time(i) * 1_000_003,
			Seg: tcpsim.Segment{
				From: tcpsim.Addr{Host: hosts[i%3], Port: 1024 + i%7}, To: tcpsim.Addr{Host: hosts[(i+1)%3], Port: 80},
				Seq: uint32(i * 1460), Ack: uint32(i), Flags: tcpsim.FlagACK | tcpsim.FlagPSH, Wnd: 65535 + i%2,
				Payload: payload[:(i*37)%1461],
			},
		})
	}
	return c
}

// writeSizes records the size of each Write.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestWritePcapAllocs: the file reaches the writer in pieces of
// at most pcapChunk — not two Writes per packet — out of one buffer, so
// the allocation count does not depend on the packet count; and what
// arrives still parses, checksums included.
func TestWritePcapAllocs(t *testing.T) {
	for _, n := range []int{10, 400, 4000} {
		c := syntheticCapture(n)
		var sizes writeSizes
		allocs := testing.AllocsPerRun(5, func() {
			sizes = sizes[:0]
			if err := c.WritePcap(&sizes); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%d packets: %.0f allocations, want at most 8", n, allocs)
		}
		total := 0
		for _, s := range sizes {
			total += s
			if s > pcapChunk {
				t.Errorf("%d packets: a Write of %d bytes exceeds the %d-byte chunk", n, s, pcapChunk)
			}
		}
		if want := total/pcapChunk + 1; len(sizes) > 2*want {
			t.Errorf("%d packets, %d bytes: %d Writes, want about %d", n, total, len(sizes), want)
		}
		var buf bytes.Buffer
		if err := c.WritePcap(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := ParsePcap(buf.Bytes())
		if err != nil {
			t.Fatalf("%d packets: %v", n, err)
		}
		if len(f.Packets) != n || buf.Len() != total {
			t.Fatalf("%d packets: parsed %d from %d bytes, chunks carried %d", n, len(f.Packets), buf.Len(), total)
		}
	}
}

// TestChecksumMatchesWordSum compares the wide-word checksum with the
// RFC 1071 definition, 16 bits at a time, at every length and for a
// segment checksummed with its pseudo-header.
func TestChecksumMatchesWordSum(t *testing.T) {
	reference := func(b []byte) uint16 {
		var sum uint32
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		return ^uint16(sum)
	}
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i*i + 0xf0)
	}
	for n := 0; n <= len(data); n++ {
		b := data[len(data)-n:]
		if got, want := ipChecksum(b), reference(b); got != want {
			t.Fatalf("ipChecksum over %d bytes = %#x, word sum %#x", n, got, want)
		}
		src, dst := []byte{10, 0, 0, 1}, []byte{10, 0, 0, 255}
		pseudo := append(append(append([]byte{}, src...), dst...), 0, 6, byte(n>>8), byte(n))
		if got, want := tcpChecksum(src, dst, b), reference(append(pseudo, b...)); got != want {
			t.Fatalf("tcpChecksum over %d bytes = %#x, pseudo-header word sum %#x", n, got, want)
		}
	}
}

// TestWritePcapReturnsWriteError: an error from a mid-file flush or from
// the last one is returned.
func TestWritePcapReturnsWriteError(t *testing.T) {
	c := syntheticCapture(400)
	var sizes writeSizes
	if err := c.WritePcap(&sizes); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	for failAt := 1; failAt <= len(sizes); failAt++ {
		n := 0
		err := c.WritePcap(writerFunc(func(p []byte) (int, error) {
			if n++; n == failAt {
				return 0, boom
			}
			return len(p), nil
		}))
		if !errors.Is(err, boom) || n != failAt {
			t.Fatalf("writer failing at write %d of %d: got %v after %d writes", failAt, len(sizes), err, n)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
