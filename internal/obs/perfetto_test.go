package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestKindTableArgsSorted: encoding/json wrote a map's keys in sorted
// order, so every kindTable row must list its args that way.
func TestKindTableArgsSorted(t *testing.T) {
	for k, row := range kindTable {
		if !sort.SliceIsSorted(row.args, func(i, j int) bool { return row.args[i].key < row.args[j].key }) {
			t.Errorf("%v: args %v are not in sorted key order", Kind(k), row.args)
		}
	}
}

// TestAppendFormsMatchJSON pins the encoder's number and string forms
// to encoding/json's: the integer fast path of appendUsec on random and
// boundary nanosecond values, appendFloat across the exponent rule, and
// appendEscaped on strings with every kind of escape.
func TestAppendFormsMatchJSON(t *testing.T) {
	marshal := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	rng := rand.New(rand.NewSource(3))
	times := []int64{0, 1, -1, 9, 10, 99, 100, 999, 1000, 1001, 1010, 1100, 123456789,
		999999999999999, 1000000000000000, 1000000000000001, -999999999999999, -1000000000000000,
		1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	for i := 0; i < 20000; i++ {
		times = append(times, rng.Int63n(1<<uint(1+rng.Intn(62)))*int64(1-2*rng.Intn(2)))
	}
	for _, ns := range times {
		if got, want := string(appendUsec(nil, sim.Time(ns))), marshal(usec(sim.Time(ns))); got != want {
			t.Fatalf("appendUsec(%d) = %s, encoding/json writes %s", ns, got, want)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e21, 9.9e20, 1e22, -1e-9, -1e25,
		0.1 + 0.2, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1e100, 1.5e-10}
	for i := 0; i < 20000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), usec(sim.Time(rng.Int63()))-usec(sim.Time(rng.Int63())))
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // encoding/json refuses them, and no sim.Time produces one
		}
		if got, want := string(appendFloat(nil, f)), marshal(f); got != want {
			t.Fatalf("appendFloat(%g) = %s, encoding/json writes %s", f, got, want)
		}
	}
	strs := append([]string{"\x7f", "a\u2027b", "\u202a", "\xe2\x80\xa8\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80"}, fuzzNotes...)
	for i := 0; i < 5000; i++ {
		raw := make([]byte, rng.Intn(12))
		rng.Read(raw)
		strs = append(strs, string(raw), fuzzNotes[rng.Intn(len(fuzzNotes))]+string(raw))
	}
	for _, s := range strs {
		if got, want := `"`+string(appendEscaped(nil, s))+`"`, marshal(s); got != want {
			t.Fatalf("appendEscaped(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestPerfettoEmptyTimeline: a nil bus and a bus with nothing recorded
// both export an empty event list, not null and not a truncated object.
func TestPerfettoEmptyTimeline(t *testing.T) {
	const want = `{"traceEvents":[],"displayTimeUnit":"ms"}` + "\n"
	var nilBus *Bus
	for name, b := range map[string]*Bus{"nil bus": nilBus, "empty bus": New(sim.New())} {
		var buf, tail bytes.Buffer
		if err := b.WritePerfettoPath(&buf, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.WritePerfettoTail(&tail, 10); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.String() != want || tail.String() != want {
			t.Errorf("%s exports %q and a tail of %q, want %q", name, buf.String(), tail.String(), want)
		}
	}
	// A nil bus has no spans to name a path after; the overlay goes too.
	var buf bytes.Buffer
	if err := nilBus.WritePerfettoPath(&buf, []PathSlice{{Span: 1, From: 0, To: 10}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("nil bus with a path exports %q, want %q", buf.String(), want)
	}
}

// bigBus records n events of mixed kinds on a handful of connections
// through the publishers, plus a span per 30 events, and gives the bus a
// capture of one packet per five events, a tenth of them dropped.
func bigBus(n int) *Bus {
	s := sim.New()
	b := New(s)
	var conns []ConnID
	for i := 0; i < 4; i++ {
		conns = append(conns, b.ConnOpen("client:"+string(rune('a'+i)), "server:80"))
	}
	var pkts packetList
	for i := 0; b.Len() < n; i++ {
		c := conns[i%len(conns)]
		switch i % 6 {
		case 0:
			at := sim.Time(i * 1000)
			pkts = append(pkts, Packet{Link: "wan-up", Bytes: 1500, Dropped: i%60 == 0,
				At: at, Start: at, Done: at + 800, Arrive: at + 90000})
		case 1:
			b.Cwnd(c, 4096+i, 65535)
		case 2:
			b.ConnState(c, i%5, (i+1)%5, []string{"SYN_SENT", "ESTABLISHED", "FIN_WAIT_1", "CLOSED"}[i%4])
		case 3:
			b.ServerSend(c, "/images/<n>.gif", 200, 1234+i)
		case 4:
			b.MuxFrame(c, "DATA", uint32(i), 1400)
		case 5:
			if i%30 == 5 {
				sp := b.SpanQueued("GET", "/obj", false)
				b.SpanWritten(sp, c)
				b.SpanDone(sp, 200, int64(i))
			} else {
				b.SendStall(c, "cwnd", i)
			}
		}
	}
	b.SetPackets(pkts)
	return b
}

// failAfter fails every Write from the n-th on.
type failAfter struct {
	n, writes int
	err       error
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= f.n {
		return 0, f.err
	}
	return len(p), nil
}

// TestPerfettoWriteErrors: the export reaches the writer in chunks of
// at most chunkSize, and an error from any of them — the first, one in
// mid-stream, the last — is what the exporter returns.
func TestPerfettoWriteErrors(t *testing.T) {
	b := bigBus(1200)
	ok := &failAfter{n: math.MaxInt}
	if err := b.WritePerfettoPath(ok, nil); err != nil {
		t.Fatal(err)
	}
	if ok.writes < 3 {
		t.Fatalf("a 1200-event export took %d writes; the test needs a mid-stream one", ok.writes)
	}
	var sizes chunkSizes
	if err := b.WritePerfettoPath(&sizes, nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if n > chunkSize || n == 0 || (i < len(sizes)-1 && n != chunkSize) {
			t.Fatalf("write %d of %d is %d bytes; want full %d-byte chunks and one remainder", i, len(sizes), n, chunkSize)
		}
	}
	boom := errors.New("disk full")
	for n := 1; n <= ok.writes; n++ {
		w := &failAfter{n: n, err: boom}
		if err := b.WritePerfettoPath(w, nil); !errors.Is(err, boom) {
			t.Fatalf("writer failing at write %d of %d: export returned %v", n, ok.writes, err)
		}
		if w.writes != n {
			t.Fatalf("writer failing at write %d saw %d writes; the export must stop at the error", n, w.writes)
		}
	}
}

type chunkSizes []int

func (c *chunkSizes) Write(p []byte) (int, error) {
	*c = append(*c, len(p))
	return len(p), nil
}

// TestWritePerfettoAllocs: the export allocates its record list, its
// buffer and a few per-connection and per-link tables — nothing per
// event and nothing per packet (the exporter this replaced made about
// eight allocations per event).
func TestWritePerfettoAllocs(t *testing.T) {
	b := bigBus(1200)
	var sink chunkSizes
	allocs := testing.AllocsPerRun(20, func() {
		sink = sink[:0]
		if err := b.WritePerfettoPath(&sink, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("exporting %d events and %d packets made %.0f allocations, want at most 64",
			b.Len(), b.packets.Len(), allocs)
	}
}
