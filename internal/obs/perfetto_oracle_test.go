package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// This file keeps the exporter perfetto.go replaced — one oracleEvent
// with a map[string]any of args per record, fmt.Sprintf names, and
// reflective encoding/json — as the reference the append-only encoder
// is compared against byte for byte (FuzzPerfettoMatchesOracle). It is
// the definition of the output format; do not optimise it.

func oracleDur(from, to sim.Time) *float64 {
	d := usec(to) - usec(from)
	if d < 0 {
		d = 0
	}
	return &d
}

// oracleEvent is one record of the Chrome trace-event format, the JSON
// schema both chrome://tracing and Perfetto load. Phases used here:
// "M" metadata, "X" complete slice (ts+dur), "b"/"e" async span
// begin/end, "C" counter, "i" instant.
type oracleEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of simulated time
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// oraclePathEvents renders the path links as slices on the overlay
// track, named after the gating request.
func oraclePathEvents(path []PathSlice, spans []SpanInfo) []oracleEvent {
	if len(path) == 0 {
		return nil
	}
	names := make(map[SpanID]string, len(spans))
	for _, sp := range spans {
		names[sp.ID] = sp.Method + " " + sp.Path
	}
	evs := []oracleEvent{
		{Name: "process_name", Ph: "M", Pid: pathPid,
			Args: map[string]any{"name": "critical path"}},
		{Name: "thread_name", Ph: "M", Pid: pathPid, Tid: 1,
			Args: map[string]any{"name": "gating requests"}},
	}
	for _, ps := range path {
		name := names[ps.Span]
		if name == "" {
			name = fmt.Sprintf("span-%d", ps.Span)
		}
		evs = append(evs, oracleEvent{Name: name, Ph: "X", Cat: "critical-path",
			Ts: usec(ps.From), Dur: oracleDur(ps.From, ps.To),
			Pid: pathPid, Tid: 1,
			Args: map[string]any{"span": int(ps.Span)}})
	}
	return evs
}

// oracleWritePerfetto is the export body; extra carries pre-built
// overlay events (the critical-path track) merged into the sort. The
// packets render on the wire process: a slice per accepted packet, an
// instant per drop.
func oracleWritePerfetto(w io.Writer, events []Event, packets []Packet, conns []ConnInfo, spans []SpanInfo, extra []oracleEvent) error {
	evs := extra
	emit := func(ev oracleEvent) { evs = append(evs, ev) }

	// Host processes, in first-connection order.
	pids := map[string]int{}
	pidOf := func(host string) int {
		if id, ok := pids[host]; ok {
			return id
		}
		id := len(pids) + 1
		pids[host] = id
		emit(oracleEvent{Name: "process_name", Ph: "M", Pid: id,
			Args: map[string]any{"name": host}})
		return id
	}
	connPid := make([]int, len(conns)+1)
	for _, ci := range conns {
		pid := pidOf(connHost(ci.Local))
		connPid[ci.ID] = pid
		emit(oracleEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: int(ci.ID),
			Args: map[string]any{"name": ci.Local + " → " + ci.Remote}})
	}

	var last sim.Time
	for _, ev := range events {
		if ev.Time > last {
			last = ev.Time
		}
	}
	for _, p := range packets {
		if p.Dropped {
			last = max(last, p.At)
		} else {
			last = max(last, p.Start, p.Arrive)
		}
	}

	// Connection state slices: each transition opens a slice that the
	// next transition (or the end of the trace) closes. CLOSED gets no
	// slice.
	type openState struct {
		name  string
		since sim.Time
	}
	open := make(map[ConnID]openState)
	closeState := func(id ConnID, at sim.Time) {
		st, ok := open[id]
		if !ok {
			return
		}
		delete(open, id)
		emit(oracleEvent{Name: st.name, Ph: "X", Cat: "tcp-state",
			Ts: usec(st.since), Dur: oracleDur(st.since, at),
			Pid: connPid[id], Tid: int(id)})
	}

	wireTids := map[string]int{}
	wirePidEmitted := false
	wireTid := func(link string) int {
		if !wirePidEmitted {
			wirePidEmitted = true
			emit(oracleEvent{Name: "process_name", Ph: "M", Pid: wirePid,
				Args: map[string]any{"name": "wire"}})
		}
		if id, ok := wireTids[link]; ok {
			return id
		}
		id := len(wireTids) + 1
		wireTids[link] = id
		emit(oracleEvent{Name: "thread_name", Ph: "M", Pid: wirePid, Tid: id,
			Args: map[string]any{"name": link}})
		return id
	}

	instant := func(ev Event, name string, args map[string]any) {
		emit(oracleEvent{Name: name, Ph: "i", S: "t", Ts: usec(ev.Time),
			Pid: connPid[ev.Conn], Tid: int(ev.Conn), Args: args})
	}

	for _, ev := range events {
		switch ev.Kind {
		case KindConnState:
			closeState(ev.Conn, ev.Time)
			if ev.Note != "CLOSED" {
				open[ev.Conn] = openState{name: ev.Note, since: ev.Time}
			}
		case KindCwnd:
			emit(oracleEvent{Name: fmt.Sprintf("cwnd conn%d", ev.Conn), Ph: "C",
				Ts: usec(ev.Time), Pid: connPid[ev.Conn],
				Args: map[string]any{"cwnd": ev.A, "ssthresh": ev.B}})
		case KindNagleHold:
			instant(ev, "nagle hold", map[string]any{"pending_bytes": ev.A})
		case KindRTOFire:
			instant(ev, "RTO fire", map[string]any{"rto_us": ev.A / 1e3, "retries": ev.B})
		case KindRetransmit:
			instant(ev, "retransmit", map[string]any{"seq": ev.A, "payload_bytes": ev.B})
		case KindServerRecv:
			instant(ev, "req "+ev.Note, nil)
		case KindServerSend:
			instant(ev, "resp "+ev.Note, map[string]any{"status": ev.A, "body_bytes": ev.B})
		case KindCacheHit:
			instant(ev, "cache hit "+ev.Note, map[string]any{"body_bytes": ev.A})
		case KindCacheMiss:
			instant(ev, "cache miss "+ev.Note, nil)
		case KindCacheReval:
			instant(ev, "cache reval "+ev.Note, map[string]any{"confirmed": ev.A == 1})
		case KindFault:
			instant(ev, "fault "+ev.Note, map[string]any{"response_seq": ev.A})
		case KindClientTimeout:
			instant(ev, "client timeout", map[string]any{"timeout_us": ev.A / 1e3})
		case KindRetryBackoff:
			instant(ev, "retry backoff", map[string]any{"backoff_us": ev.A / 1e3, "failures": ev.B})
		case KindFallback:
			instant(ev, "fallback "+ev.Note, map[string]any{"level": ev.A})
		case KindPushPromise:
			instant(ev, "push promise "+ev.Note, nil)
		case KindMuxFrame:
			instant(ev, "frame "+ev.Note, map[string]any{"stream": ev.A, "payload_bytes": ev.B})
		case KindFlowStall:
			instant(ev, "flow stall "+ev.Note, map[string]any{"stream": ev.A})
		case KindStreamReset:
			instant(ev, "stream reset "+ev.Note, map[string]any{"stream": ev.A})
		case KindGoaway:
			instant(ev, "goaway "+ev.Note, map[string]any{"last_stream": ev.A})
		case KindDeadlock:
			instant(ev, "deadlock "+ev.Note, map[string]any{"stream": ev.A})
		case KindSendStall:
			instant(ev, "send stall "+ev.Note, map[string]any{"pending_bytes": ev.A})
		case KindSendResume:
			instant(ev, "send resume", nil)
		}
	}
	for id := range open {
		closeState(id, last)
	}

	for _, p := range packets {
		if p.Dropped {
			emit(oracleEvent{Name: "drop", Ph: "i", S: "t", Ts: usec(p.At),
				Pid: wirePid, Tid: wireTid(p.Link),
				Args: map[string]any{"wire_bytes": p.Bytes}})
			continue
		}
		// Slice over the link's serialization occupancy; delivery
		// instant in args. FIFO links make these non-overlapping.
		emit(oracleEvent{Name: fmt.Sprintf("pkt %dB", p.Bytes), Ph: "X",
			Cat: "wire", Ts: usec(p.Start), Dur: oracleDur(p.Start, p.Done),
			Pid: wirePid, Tid: wireTid(p.Link),
			Args: map[string]any{"arrive_us": usec(p.Arrive)}})
	}

	// Request spans as async begin/end pairs on the carrying connection:
	// async slices may overlap (pipelining), which thread slices may not.
	for _, sp := range spans {
		if sp.Conn == 0 || sp.Done == NoTime {
			continue // never written or abandoned (e.g. connection reset)
		}
		start := sp.Queued
		if start == NoTime {
			start = sp.Written
		}
		name := sp.Method + " " + sp.Path
		id := fmt.Sprintf("span-%d", sp.ID)
		args := map[string]any{
			"status": sp.Status, "body_bytes": sp.Bytes,
			"queued_us": usec(sp.Queued), "written_us": usec(sp.Written),
		}
		if sp.FirstByte != NoTime && sp.Written != NoTime {
			args["ttfb_us"] = usec(sp.FirstByte) - usec(sp.Written)
		}
		if sp.Retried {
			args["retried"] = true
		}
		if sp.Pushed {
			args["pushed"] = true
		}
		if sp.Via != "" {
			args["via"] = sp.Via
		}
		pid := connPid[sp.Conn]
		emit(oracleEvent{Name: name, Ph: "b", Cat: "request", ID: id,
			Ts: usec(start), Pid: pid, Tid: int(sp.Conn), Args: args})
		emit(oracleEvent{Name: name, Ph: "e", Cat: "request", ID: id,
			Ts: usec(sp.Done), Pid: pid, Tid: int(sp.Conn)})
	}

	// Stable output: sort by (ts, pid, tid, ph) with metadata first.
	sort.SliceStable(evs, func(i, j int) bool {
		a, c := evs[i], evs[j]
		am, cm := a.Ph == "M", c.Ph == "M"
		if am != cm {
			return am
		}
		if a.Ts != c.Ts {
			return a.Ts < c.Ts
		}
		if a.Pid != c.Pid {
			return a.Pid < c.Pid
		}
		return a.Tid < c.Tid
	})

	if evs == nil {
		evs = []oracleEvent{} // the one deliberate change: an empty timeline is [], not null
	}
	out := struct {
		TraceEvents     []oracleEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// fuzzInput reads a fuzz input as a script; an exhausted input reads as
// zeros, so every input is a valid script.
type fuzzInput struct {
	data []byte
	now  sim.Time
}

func (in *fuzzInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	c := in.data[0]
	in.data = in.data[1:]
	return c
}

func (in *fuzzInput) raw(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = in.byte()
	}
	return out
}

var fuzzNums = []int64{0, 1, -1, 999, 1000, 1001, 1500, 65535, 1 << 31, 1<<53 + 1,
	999999999999999, 1000000000000000, -999999999999999, -1000000000000000,
	math.MaxInt64, math.MinInt64, 123456789, 1e18}

// num is a palette value (boundaries of the timestamp fast path, of
// int32 and of float64's integer range) or eight raw bytes.
func (in *fuzzInput) num() int64 {
	c := in.byte()
	if int(c) < len(fuzzNums) {
		return fuzzNums[c]
	}
	if c < 200 {
		return int64(c) * 1237
	}
	return int64(binary.LittleEndian.Uint64(in.raw(8)))
}

// time mostly advances a clock by a small step, as a run does, and
// sometimes jumps to an arbitrary value.
func (in *fuzzInput) time() sim.Time {
	c := in.byte()
	switch {
	case c < 180:
		in.now += sim.Time(c) * 997
		return in.now
	case c < 200:
		return in.now // repeats: equal sort keys
	case c < 210:
		return NoTime
	}
	return sim.Time(in.num())
}

var fuzzNotes = []string{"", "ESTABLISHED", "CLOSED", "SYN_SENT", "wan-up", "wan-down", "DATA",
	"/a<b>&c\"d\\e", "\x00\x01\x1f\x7f\b\f\n\r\t", "x\u2028y\u2029", "\xff\xfe", "tail\xe2\x80",
	"日本語 → ok", "</script>", "client", "GET"}

func (in *fuzzInput) note() string {
	c := in.byte()
	if int(c) < len(fuzzNotes) {
		return fuzzNotes[c]
	}
	if c < 128 {
		return fuzzNotes[int(c)%len(fuzzNotes)] + string(rune(c))
	}
	return string(in.raw(int(c) % 9))
}

// fuzzBus builds a bus and a path overlay from a script: a few
// connections, events of every Kind (and a few values past the last
// one) with arbitrary times, numbers and notes, sent and dropped
// packets on arbitrary links with arbitrary instants, spans with every
// combination of missing instants and flags, and path links naming
// spans inside and outside the table.
func fuzzBus(data []byte) (*Bus, []PathSlice) {
	in := &fuzzInput{data: data}
	b := &Bus{}
	hosts := []string{"client", "server", "proxy", "no-port<&>", "bad\xff"}
	nconns := 1 + int(in.byte())%5
	for i := 0; i < nconns; i++ {
		local := hosts[int(in.byte())%len(hosts)]
		if in.byte()%4 != 0 {
			local += ":" + in.note()
		}
		b.conns = append(b.conns, ConnInfo{ID: ConnID(i + 1), Local: local, Remote: in.note(), Opened: in.time()})
	}
	conn := func() ConnID { return ConnID(int(in.byte()) % (nconns + 1)) }
	nspans := int(in.byte()) % 6
	for i := 0; i < nspans; i++ {
		flags := in.byte()
		sp := SpanInfo{ID: SpanID(i + 1), Method: in.note(), Path: in.note(), Conn: conn(),
			Retried: flags&1 != 0, Pushed: flags&2 != 0,
			Queued: in.time(), Written: in.time(), FirstByte: in.time(), Done: in.time(),
			Status: int(in.num()), Bytes: in.num()}
		if flags&4 != 0 {
			sp.Via = in.note()
		}
		b.spans = append(b.spans, sp)
	}
	var path []PathSlice
	for n := int(in.byte()) % 4; n > 0; n-- {
		path = append(path, PathSlice{Span: SpanID(int(in.byte())%9 - 1), From: in.time(), To: in.time()})
	}
	var pkts packetList
	for len(in.data) > 0 {
		if k := in.byte() % 40; k >= 32 {
			pkts = append(pkts, Packet{Link: in.note(), Bytes: int(in.num()), Dropped: k >= 36,
				At: in.time(), Start: in.time(), Done: in.time(), Arrive: in.time()})
		} else {
			b.events = append(b.events, Event{
				Time: in.time(), Kind: Kind(k), Conn: conn(), A: in.num(), B: in.num(), Note: in.note(),
			})
		}
	}
	b.packets = pkts
	return b, path
}

// FuzzPerfettoMatchesOracle: the append-only encoder and the
// encoding/json exporter it replaced produce the same bytes for any bus
// and packet capture.
func FuzzPerfettoMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0}) // one connection, nothing recorded
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 16+rng.Intn(1500))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, path := fuzzBus(data)
		var got, want bytes.Buffer
		if err := b.WritePerfettoPath(&got, path); err != nil {
			t.Fatal(err)
		}
		if err := oracleWritePerfetto(&want, b.events, b.packets.(packetList), b.conns, b.spans, oraclePathEvents(path, b.spans)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			lo := max(i-80, 0)
			t.Fatalf("export differs from the oracle at byte %d:\n got  …%q\n want …%q", i,
				got.Bytes()[lo:min(i+80, got.Len())], want.Bytes()[lo:min(i+80, want.Len())])
		}
	})
}
