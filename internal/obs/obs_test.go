package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	if id := b.ConnOpen("a:1", "b:2"); id != 0 {
		t.Fatalf("nil ConnOpen returned %d", id)
	}
	b.ConnState(1, 0, 1, "SYN_SENT")
	b.Cwnd(1, 4096, 65535)
	b.NagleHold(1, 100)
	b.RTOFire(1, time.Second, 1)
	b.Retransmit(1, 42, 1460)
	b.SetPackets(packetList{{Link: "l", Bytes: 40}})
	if id := b.SpanQueued("GET", "/", false); id != 0 {
		t.Fatalf("nil SpanQueued returned %d", id)
	}
	b.SpanWritten(1, 1)
	b.SpanFirstByte(1)
	b.SpanDone(1, 200, 10)
	b.ServerRecv(1, "/")
	b.ServerSend(1, "/", 200, 10)
	if b.Len() != 0 || b.Events() != nil || b.Conns() != nil || b.Spans() != nil || b.Waterfall() != nil {
		t.Fatal("nil bus accessors returned data")
	}
	var buf bytes.Buffer
	if err := b.WritePerfettoPath(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil-bus perfetto output is not JSON: %v", err)
	}
	if len(out.TraceEvents) != 0 {
		t.Fatal("nil-bus perfetto output has events")
	}
}

// packetList is a packet capture held as a slice.
type packetList []Packet

func (l packetList) Len() int            { return len(l) }
func (l packetList) Packet(i int) Packet { return l[i] }

// busFixture drives a tiny scripted timeline: one connection, two
// request spans (the second retried and abandoned), a wire packet, and
// a drop.
func busFixture(t *testing.T) *Bus {
	t.Helper()
	s := sim.New()
	b := New(s)
	var conn ConnID
	var sp1, sp2 SpanID
	s.Schedule(0, func() {
		conn = b.ConnOpen("client:10000", "server:80")
		b.ConnState(conn, 0, 1, "SYN_SENT")
		sp1 = b.SpanQueued("GET", "/", false)
	})
	s.Schedule(time.Millisecond, func() {
		b.ConnState(conn, 1, 3, "ESTABLISHED")
		b.Cwnd(conn, 4096, 65535)
		b.SpanWritten(sp1, conn)
	})
	s.Schedule(2*time.Millisecond, func() {
		b.ServerRecv(conn, "/")
		b.ServerSend(conn, "/", 200, 500)
	})
	s.Schedule(3*time.Millisecond, func() {
		b.SpanFirstByte(sp1)
		b.NagleHold(conn, 77)
		b.RTOFire(conn, 500*time.Millisecond, 1)
		b.Retransmit(conn, 1, 500)
	})
	s.Schedule(4*time.Millisecond, func() {
		b.SpanDone(sp1, 200, 500)
		sp2 = b.SpanQueued("GET", "/a.gif", true)
		b.SpanWritten(sp2, conn)
		b.ConnState(conn, 3, 0, "CLOSED")
	})
	s.Run()
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }
	b.SetPackets(packetList{
		{Link: "t→", Bytes: 140, At: ms(1), Start: ms(1), Done: ms(2), Arrive: ms(3)},
		{Link: "t←", Bytes: 540, Dropped: true, At: ms(2)},
	})
	return b
}

func TestSpanAssembly(t *testing.T) {
	b := busFixture(t)
	spans := b.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	sp := spans[0]
	if sp.Method != "GET" || sp.Path != "/" || sp.Retried {
		t.Fatalf("span 1 identity wrong: %+v", sp)
	}
	if sp.Queued != 0 {
		t.Fatalf("queued at %v, want 0", sp.Queued)
	}
	if sp.Written != sim.Time(time.Millisecond) {
		t.Fatalf("written at %v, want 1ms", sp.Written)
	}
	if sp.FirstByte != sim.Time(3*time.Millisecond) {
		t.Fatalf("first byte at %v, want 3ms", sp.FirstByte)
	}
	if sp.Done != sim.Time(4*time.Millisecond) || sp.Status != 200 || sp.Bytes != 500 {
		t.Fatalf("done wrong: %+v", sp)
	}
	if sp.Conn != 1 {
		t.Fatalf("span conn = %d, want 1", sp.Conn)
	}
	ab := spans[1]
	if !ab.Retried || ab.Done != NoTime || ab.FirstByte != NoTime {
		t.Fatalf("abandoned span wrong: %+v", ab)
	}
}

func TestSpanFirstByteIdempotent(t *testing.T) {
	s := sim.New()
	b := New(s)
	var sp SpanID
	s.Schedule(0, func() {
		sp = b.SpanQueued("GET", "/", false)
		b.SpanWritten(sp, 1)
		b.SpanWritten(sp, 2) // second write ignored
	})
	s.Schedule(time.Millisecond, func() { b.SpanFirstByte(sp) })
	s.Schedule(2*time.Millisecond, func() {
		b.SpanFirstByte(sp) // later call must not move the instant
		b.SpanDone(sp, 200, 1)
		b.SpanDone(sp, 500, 9) // second done ignored
	})
	s.Run()
	got := b.Spans()[0]
	if got.Conn != 1 {
		t.Fatalf("conn = %d, want first write's 1", got.Conn)
	}
	if got.FirstByte != sim.Time(time.Millisecond) {
		t.Fatalf("first byte = %v, want 1ms", got.FirstByte)
	}
	if got.Status != 200 || got.Bytes != 1 {
		t.Fatalf("done fields overwritten: %+v", got)
	}
}

func TestSpanDoneBackfillsFirstByte(t *testing.T) {
	s := sim.New()
	b := New(s)
	s.Schedule(0, func() {
		sp := b.SpanQueued("GET", "/", false)
		b.SpanWritten(sp, 1)
	})
	s.Schedule(time.Millisecond, func() { b.SpanDone(1, 304, 0) })
	s.Run()
	got := b.Spans()[0]
	if got.FirstByte != got.Done {
		t.Fatalf("first byte %v != done %v", got.FirstByte, got.Done)
	}
}

func TestWaterfallRows(t *testing.T) {
	s := sim.New()
	b := New(s)
	s.Schedule(0, func() {
		c := b.ConnOpen("client:1", "server:80")
		a := b.SpanQueued("GET", "/", false)
		b.SpanWritten(a, c)
		second := b.SpanQueued("GET", "/x", false)
		b.SpanWritten(second, c)
	})
	s.Schedule(time.Millisecond, func() {
		b.SpanDone(1, 200, 10)
		b.SpanDone(2, 200, 20)
	})
	s.Run()
	rows := b.Waterfall()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Reused {
		t.Fatal("first use of the connection marked reused")
	}
	if !rows[1].Reused {
		t.Fatal("second span on the same connection not marked reused")
	}
	if rows[0].TTFB() != time.Millisecond {
		t.Fatalf("TTFB = %v, want 1ms", rows[0].TTFB())
	}
	if rows[0].Transfer() != 0 {
		t.Fatalf("Transfer = %v, want 0", rows[0].Transfer())
	}
}

// perfettoEvent mirrors the trace-event schema for validation.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

func TestPerfettoSchema(t *testing.T) {
	b := busFixture(t)
	var buf bytes.Buffer
	if err := b.WritePerfettoPath(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents     []perfettoEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	validPh := map[string]bool{"M": true, "X": true, "b": true, "e": true, "C": true, "i": true}
	async := map[string]int{}
	seenKinds := map[string]bool{}
	lastTs := -1.0
	metaDone := false
	for i, ev := range out.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if !validPh[ev.Ph] {
			t.Fatalf("event %d has bad phase %q", i, ev.Ph)
		}
		if ev.Ts == nil || ev.Pid == nil {
			t.Fatalf("event %d missing ts or pid: %+v", i, ev)
		}
		if *ev.Ts < 0 {
			t.Fatalf("event %d has negative ts", i)
		}
		seenKinds[ev.Ph] = true
		switch ev.Ph {
		case "M":
			if metaDone {
				t.Fatalf("metadata event %d after non-metadata", i)
			}
		case "X":
			metaDone = true
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event %d lacks non-negative dur", i)
			}
		case "b":
			metaDone = true
			async[ev.ID]++
		case "e":
			metaDone = true
			async[ev.ID]--
		default:
			metaDone = true
		}
		if ev.Ph != "M" {
			if *ev.Ts < lastTs {
				t.Fatalf("event %d out of time order (%f < %f)", i, *ev.Ts, lastTs)
			}
			lastTs = *ev.Ts
		}
	}
	for id, n := range async {
		if n != 0 {
			t.Fatalf("async span %q unbalanced (%+d)", id, n)
		}
	}
	for _, ph := range []string{"M", "X", "b", "e", "C", "i"} {
		if !seenKinds[ph] {
			t.Errorf("fixture produced no %q events", ph)
		}
	}
	// The abandoned retried span must not appear as an async pair.
	if got := async["span-2"]; got != 0 {
		t.Fatalf("abandoned span leaked: %d", got)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "b" && ev.ID == "span-2" {
			t.Fatal("abandoned span emitted a begin event")
		}
	}
}
