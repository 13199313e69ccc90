package netem

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSerializationDelay(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000}) // 1000 bytes/sec
	if got := l.SerializationDelay(100); got != 100*time.Millisecond {
		t.Fatalf("SerializationDelay(100) = %v, want 100ms", got)
	}
	l2 := NewLink(s, "inf", Config{})
	if got := l2.SerializationDelay(100); got != 0 {
		t.Fatalf("infinite link delay = %v, want 0", got)
	}
}

func TestSendDeliversAfterTransit(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, PropagationDelay: 50 * time.Millisecond})
	var at sim.Time
	l.Send(nil, 100, func() { at = s.Now() })
	s.Run()
	if want := sim.Time(150 * time.Millisecond); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestFIFOQueueing(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, PropagationDelay: 10 * time.Millisecond})
	var first, second sim.Time
	// Two 100-byte packets sent back to back: second waits for the first's
	// serialization (100ms each), then adds propagation.
	l.Send(nil, 100, func() { first = s.Now() })
	l.Send(nil, 100, func() { second = s.Now() })
	s.Run()
	if want := sim.Time(110 * time.Millisecond); first != want {
		t.Fatalf("first at %v, want %v", first, want)
	}
	if want := sim.Time(210 * time.Millisecond); second != want {
		t.Fatalf("second at %v, want %v", second, want)
	}
}

func TestLinkIdleGapNoQueueing(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, PropagationDelay: 0})
	var second sim.Time
	l.Send(nil, 100, func() {})
	// Send the second packet well after the first finished.
	s.Schedule(500*time.Millisecond, func() {
		l.Send(nil, 100, func() { second = s.Now() })
	})
	s.Run()
	if want := sim.Time(600 * time.Millisecond); second != want {
		t.Fatalf("second at %v, want %v (no residual queueing)", second, want)
	}
}

func TestMTUViolationPanics(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{MTU: 1500})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized packet")
		}
	}()
	l.Send(nil, 1501, func() {})
}

func TestLossFunc(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{Loss: func(i, _ int) bool { return i == 1 }})
	delivered := 0
	for i := 0; i < 3; i++ {
		l.Send(nil, 40, func() { delivered++ })
	}
	s.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", l.Dropped())
	}
	if l.sent != 3 {
		t.Fatalf("sent %d, want 3", l.sent)
	}
}

type halfCompressor struct{ resets int }

func (c *halfCompressor) CompressedBits(p []byte) int { return len(p) * 8 / 2 }
func (c *halfCompressor) Reset()                      { c.resets++ }

func TestCompressorHalvesSerialization(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, Compressor: &halfCompressor{}})
	var at sim.Time
	l.Send(make([]byte, 100), 100, func() { at = s.Now() })
	s.Run()
	if want := sim.Time(50 * time.Millisecond); at != want {
		t.Fatalf("delivered at %v, want %v (compressed)", at, want)
	}
	if l.WireBits() != 400 {
		t.Fatalf("wire bits = %d, want 400", l.WireBits())
	}
}

func TestPerPacketOverhead(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, PerPacketOverheadBytes: 8})
	var at sim.Time
	l.Send(nil, 92, func() { at = s.Now() })
	s.Run()
	if want := sim.Time(100 * time.Millisecond); at != want {
		t.Fatalf("delivered at %v, want %v (92+8 bytes)", at, want)
	}
}

func TestProfilesMatchTable1(t *testing.T) {
	for _, env := range Environments {
		p := Profiles[env]
		if p.MSS != 1460 {
			t.Errorf("%v MSS = %d, want 1460", env, p.MSS)
		}
	}
	if Profiles[PPP].Bandwidth != 28_800 {
		t.Errorf("PPP bandwidth = %d, want 28800", Profiles[PPP].Bandwidth)
	}
	if Profiles[LAN].RTT >= time.Millisecond {
		t.Errorf("LAN RTT = %v, want < 1ms", Profiles[LAN].RTT)
	}
	if Profiles[WAN].RTT != 90*time.Millisecond {
		t.Errorf("WAN RTT = %v, want 90ms", Profiles[WAN].RTT)
	}
	if Profiles[PPP].RTT != 150*time.Millisecond {
		t.Errorf("PPP RTT = %v, want 150ms", Profiles[PPP].RTT)
	}
}

func TestNewEnvPathRoundTrip(t *testing.T) {
	for _, env := range Environments {
		s := sim.New()
		p := NewEnvPath(s, env, PathOptions{})
		var rtt sim.Time
		// 40-byte packet each way approximates a SYN/SYN-ACK RTT probe.
		p.AB.Send(nil, 40, func() {
			p.BA.Send(nil, 40, func() { rtt = s.Now() })
		})
		s.Run()
		want := Profiles[env].RTT
		got := time.Duration(rtt)
		// Allow serialization on top of propagation.
		if got < want || got > want+2*p.AB.SerializationDelay(48)+time.Millisecond {
			t.Errorf("%v probe RTT = %v, profile RTT %v", env, got, want)
		}
	}
}

func TestEnvironmentString(t *testing.T) {
	if LAN.String() != "LAN" || WAN.String() != "WAN" || PPP.String() != "PPP" {
		t.Fatal("environment names wrong")
	}
	if Environment(9).String() != "Environment(9)" {
		t.Fatal("unknown environment formatting wrong")
	}
}

func TestRTTJitterChangesDelay(t *testing.T) {
	s := sim.New()
	rng := sim.NewRand(3)
	p := NewEnvPath(s, WAN, PathOptions{Rng: rng})
	base := Profiles[WAN].RTT / 2
	got := p.AB.Config().PropagationDelay
	if got == base {
		t.Fatal("jitter did not perturb propagation delay")
	}
	lo := time.Duration(float64(base) * 0.97)
	hi := time.Duration(float64(base) * 1.03)
	if got < lo || got > hi {
		t.Fatalf("jittered delay %v outside [%v,%v]", got, lo, hi)
	}
}

// TestTransmitReportsWindow: the window Transmit reports is the one the
// link keeps. Serialization starts no earlier than the packet is offered
// nor before the previous packet is done, the last bit arrives one
// propagation delay after serialization ends, the delivery fires at that
// instant, and a dropped packet reports no window.
func TestTransmitReportsWindow(t *testing.T) {
	s := sim.New()
	const prop = 10 * time.Millisecond
	l := NewLink(s, "t", Config{BitsPerSecond: 8000, PropagationDelay: prop,
		Loss: func(i, _ int) bool { return i == 2 }})
	type sent struct {
		offered, delivered sim.Time
		win                Window
		ok                 bool
	}
	var got []*sent
	offer := func(bytes int) {
		p := &sent{offered: s.Now()}
		p.win, p.ok = l.Transmit(nil, bytes, func(a any) { a.(*sent).delivered = s.Now() }, p)
		got = append(got, p)
	}
	// Two back to back (the second queues), one dropped, one after the
	// link went idle.
	s.Schedule(0, func() { offer(100); offer(50); offer(40) })
	s.Schedule(time.Second, func() { offer(20) })
	s.Run()

	if len(got) != 4 {
		t.Fatalf("offered %d packets, want 4", len(got))
	}
	if p := got[2]; p.ok || p.win != (Window{}) || p.delivered != 0 {
		t.Fatalf("dropped packet reported %+v", *p)
	}
	var prevDone sim.Time
	for i, p := range got {
		if i == 2 {
			continue
		}
		w := p.win
		if !p.ok {
			t.Fatalf("packet %d not accepted", i)
		}
		if w.Start < p.offered || w.Start < prevDone {
			t.Errorf("packet %d starts at %v: offered at %v, previous done at %v", i, w.Start, p.offered, prevDone)
		}
		if w.Done <= w.Start {
			t.Errorf("packet %d window %v..%v is empty", i, w.Start, w.Done)
		}
		if w.Arrive != w.Done.Add(prop) {
			t.Errorf("packet %d arrives at %v, want done %v + %v", i, w.Arrive, w.Done, prop)
		}
		if p.delivered != w.Arrive {
			t.Errorf("packet %d delivered at %v, reported arrival %v", i, p.delivered, w.Arrive)
		}
		prevDone = w.Done
	}
	// The second packet queued behind the first; the last found the link idle.
	if got[1].win.Start != got[0].win.Done {
		t.Errorf("queued packet starts at %v, want the first's done %v", got[1].win.Start, got[0].win.Done)
	}
	if got[3].win.Start != got[3].offered {
		t.Errorf("packet on an idle link starts at %v, want its offer instant %v", got[3].win.Start, got[3].offered)
	}
}
