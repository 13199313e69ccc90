package obs

import (
	"cmp"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sim"
)

// The export is the Chrome trace-event format, the JSON schema both
// chrome://tracing and Perfetto load. Phases used here: "M" metadata,
// "X" complete slice (ts+dur), "b"/"e" async span begin/end, "C"
// counter, "i" instant. Each output record is first collected as a
// compact sort key plus a reference back to the Event, Packet,
// SpanInfo, ConnInfo or PathSlice it describes; after the sort an
// append-only encoder renders names and args straight from that source.
// The bytes are those encoding/json produced for the exporter this
// replaced, which perfetto_oracle_test.go keeps as the reference.

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// connHost extracts the host part of a ConnInfo local address.
func connHost(addr string) string {
	if i := strings.IndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// wirePid is the synthetic process id the link tracks render under;
// host processes are numbered from 1. pathPid carries the optional
// critical-path overlay track.
const (
	wirePid = 100
	pathPid = 200
)

// PathSlice is one link of an externally computed page-load critical
// path: the span that was the binding constraint over [From, To). The
// causality analyzer produces these; obs only renders them, so the
// dependency points the right way.
type PathSlice struct {
	Span     SpanID
	From, To sim.Time
}

// WritePerfettoPath exports the timeline as Chrome trace-event / Perfetto
// JSON: one process per simulated host plus one for the wire,
// connections as named threads carrying their TCP state as slices,
// request spans as async slices over the connection that carried them,
// congestion windows as counter tracks, each captured packet as a slice
// over its link's serialization (a drop as an instant), and Nagle holds,
// RTO fires, retransmissions and server request handling as instants.
// All timestamps are simulated time in microseconds. A non-empty path
// adds a dedicated "critical path" process: one complete slice per path
// link, so the gating chain root document → last object reads left to
// right as a single highlighted track in the Perfetto UI.
func (b *Bus) WritePerfettoPath(w io.Writer, path []PathSlice) error {
	return b.writePerfetto(w, b.Len(), path)
}

// WritePerfettoTail exports the bus's last n events in the layout of
// WritePerfettoPath, with every packet and the complete conn and span
// tables (they are small and index-addressed, so they are never
// truncated). The flight recorder dumps a run's record through it.
func (b *Bus) WritePerfettoTail(w io.Writer, n int) error {
	return b.writePerfetto(w, n, nil)
}

// shape is how an event Kind appears on the timeline.
type shape uint8

const (
	shapeState   shape = iota // opens a tcp-state slice on the connection's thread, closing the previous one
	shapeCounter              // counter sample on the connection's host process
	shapeInstant              // instant on the connection's thread
)

// shapes gives each shape's phase and the fields that follow pid/tid.
var shapes = [...]struct {
	ph   byte
	tail string
}{
	shapeState:   {'X', `,"cat":"tcp-state"`},
	shapeCounter: {'C', ``},
	shapeInstant: {'i', `,"s":"t"`},
}

// suffix is what follows a kind's name prefix.
type suffix uint8

const (
	sufNone suffix = iota
	sufNote        // the event's Note
	sufConn        // the connection id ("cwnd conn3")
)

// argValue is how one args value derives from an Event.
type argValue uint8

const (
	valA      argValue = iota // A
	valB                      // B
	valAMicro                 // A in whole microseconds (integer division of nanoseconds)
	valAIsOne                 // the boolean A == 1
)

type kindArg struct {
	key string
	val argValue
}

// kindTable says how each event Kind renders: its shape, its name
// (prefix + suffix) and its args, which must be listed in sorted key
// order because that is the order encoding/json gave a map.
var kindTable = [...]struct {
	shape  shape
	prefix string
	suffix suffix
	args   []kindArg
}{
	KindConnState:     {shapeState, "", sufNote, nil},
	KindCwnd:          {shapeCounter, "cwnd conn", sufConn, []kindArg{{"cwnd", valA}, {"ssthresh", valB}}},
	KindNagleHold:     {shapeInstant, "nagle hold", sufNone, []kindArg{{"pending_bytes", valA}}},
	KindRTOFire:       {shapeInstant, "RTO fire", sufNone, []kindArg{{"retries", valB}, {"rto_us", valAMicro}}},
	KindRetransmit:    {shapeInstant, "retransmit", sufNone, []kindArg{{"payload_bytes", valB}, {"seq", valA}}},
	KindServerRecv:    {shapeInstant, "req ", sufNote, nil},
	KindServerSend:    {shapeInstant, "resp ", sufNote, []kindArg{{"body_bytes", valB}, {"status", valA}}},
	KindCacheHit:      {shapeInstant, "cache hit ", sufNote, []kindArg{{"body_bytes", valA}}},
	KindCacheMiss:     {shapeInstant, "cache miss ", sufNote, nil},
	KindCacheReval:    {shapeInstant, "cache reval ", sufNote, []kindArg{{"confirmed", valAIsOne}}},
	KindFault:         {shapeInstant, "fault ", sufNote, []kindArg{{"response_seq", valA}}},
	KindClientTimeout: {shapeInstant, "client timeout", sufNone, []kindArg{{"timeout_us", valAMicro}}},
	KindRetryBackoff:  {shapeInstant, "retry backoff", sufNone, []kindArg{{"backoff_us", valAMicro}, {"failures", valB}}},
	KindFallback:      {shapeInstant, "fallback ", sufNote, []kindArg{{"level", valA}}},
	KindPushPromise:   {shapeInstant, "push promise ", sufNote, nil},
	KindMuxFrame:      {shapeInstant, "frame ", sufNote, []kindArg{{"payload_bytes", valB}, {"stream", valA}}},
	KindFlowStall:     {shapeInstant, "flow stall ", sufNote, []kindArg{{"stream", valA}}},
	KindStreamReset:   {shapeInstant, "stream reset ", sufNote, []kindArg{{"stream", valA}}},
	KindGoaway:        {shapeInstant, "goaway ", sufNote, []kindArg{{"last_stream", valA}}},
	KindDeadlock:      {shapeInstant, "deadlock ", sufNote, []kindArg{{"stream", valA}}},
	KindSendStall:     {shapeInstant, "send stall ", sufNote, []kindArg{{"pending_bytes", valA}}},
	KindSendResume:    {shapeInstant, "send resume", sufNone, nil},
}

// source says which table a record's ref indexes.
type source uint8

const (
	srcEvent       source = iota // events: rendered by kindTable
	srcPacket                    // packets: a "pkt" slice, or a "drop" instant
	srcSpanBegin                 // spans: async begin, with the request's args
	srcSpanEnd                   // spans: async end
	srcHostProcess               // conns: process_name of the host in Local
	srcConnThread                // conns: thread_name "local → remote"
	srcWireProcess               // process_name "wire"
	srcWireThread                // packets: thread_name of the packet's link
	srcPathProcess               // process_name of the critical-path overlay
	srcPathThread                // its one thread_name
	srcPathSlice                 // path: one gating request
)

// record is one output record before rendering: the sort key, and where
// its name and args come from. end closes an "X" slice.
type record struct {
	ts       float64 // microseconds of simulated time
	pid, tid int32
	ph       byte
	src      source
	ref      int32
	end      sim.Time
}

// compareRecords orders the output: metadata first, then by (ts, pid,
// tid). Records comparing equal keep their collection order.
func compareRecords(a, c record) int {
	if am, cm := a.ph == 'M', c.ph == 'M'; am != cm {
		if am {
			return -1
		}
		return 1
	}
	if a.ts != c.ts {
		if a.ts < c.ts {
			return -1
		}
		return 1
	}
	if a.pid != c.pid {
		return cmp.Compare(a.pid, c.pid)
	}
	return cmp.Compare(a.tid, c.tid)
}

// collect lists the records in emission order: the path overlay, host
// processes and connection threads in first-connection order, the
// packets (a wire thread is named when its link first appears), the
// event stream, the state slices still open when the window ends, then
// the request spans.
func (e *encoder) collect() []record {
	npkt := 0
	if e.packets != nil {
		npkt = e.packets.Len()
	}
	recs := make([]record, 0, len(e.events)+npkt+2*len(e.spans)+2*len(e.conns)+len(e.path)+8)

	if len(e.path) > 0 {
		recs = append(recs,
			record{ph: 'M', pid: pathPid, src: srcPathProcess},
			record{ph: 'M', pid: pathPid, tid: 1, src: srcPathThread})
		for i, ps := range e.path {
			recs = append(recs, record{ts: usec(ps.From), ph: 'X', pid: pathPid, tid: 1,
				src: srcPathSlice, ref: int32(i), end: ps.To})
		}
	}

	pids := map[string]int32{}
	connPid := make([]int32, len(e.conns)+1)
	for i, ci := range e.conns {
		host := connHost(ci.Local)
		pid, ok := pids[host]
		if !ok {
			pid = int32(len(pids) + 1)
			pids[host] = pid
			recs = append(recs, record{ph: 'M', pid: pid, src: srcHostProcess, ref: int32(i)})
		}
		connPid[ci.ID] = pid
		recs = append(recs, record{ph: 'M', pid: pid, tid: int32(ci.ID), src: srcConnThread, ref: int32(i)})
	}

	// Packets on their link's wire thread: an accepted one as a slice
	// over its serialization, a dropped one as an instant. last is where
	// the window ends: the latest instant any record reaches.
	var last sim.Time
	wireTids := map[string]int32{}
	for i := 0; i < npkt; i++ {
		p := e.packets.Packet(i)
		if len(wireTids) == 0 {
			recs = append(recs, record{ph: 'M', pid: wirePid, src: srcWireProcess})
		}
		tid, ok := wireTids[p.Link]
		if !ok {
			tid = int32(len(wireTids) + 1)
			wireTids[p.Link] = tid
			recs = append(recs, record{ph: 'M', pid: wirePid, tid: tid, src: srcWireThread, ref: int32(i)})
		}
		r := record{pid: wirePid, tid: tid, src: srcPacket, ref: int32(i)}
		if p.Dropped {
			r.ts, r.ph = usec(p.At), 'i'
			last = max(last, p.At)
		} else {
			r.ts, r.ph, r.end = usec(p.Start), 'X', p.Done
			last = max(last, p.Start, p.Arrive)
		}
		recs = append(recs, r)
	}
	for i := range e.events {
		last = max(last, e.events[i].Time)
	}

	// Connection state slices: each transition opens a slice that the
	// next transition (or the end of the window) closes. CLOSED gets no
	// slice. open holds 1 + the index of the event that opened the
	// connection's current state.
	open := make([]int32, len(e.conns)+1)
	closeState := func(id ConnID, at sim.Time) {
		if open[id] == 0 {
			return
		}
		ref := open[id] - 1
		open[id] = 0
		recs = append(recs, record{ts: usec(e.events[ref].Time), ph: 'X',
			pid: connPid[id], tid: int32(id), src: srcEvent, ref: ref, end: at})
	}

	for i := range e.events {
		ev := &e.events[i]
		if int(ev.Kind) >= len(kindTable) {
			continue
		}
		sh := kindTable[ev.Kind].shape
		r := record{ts: usec(ev.Time), ph: shapes[sh].ph, src: srcEvent, ref: int32(i)}
		switch sh {
		case shapeState:
			closeState(ev.Conn, ev.Time)
			if ev.Note != "CLOSED" {
				open[ev.Conn] = int32(i) + 1
			}
			continue
		case shapeCounter:
			r.pid = connPid[ev.Conn]
		case shapeInstant:
			r.pid, r.tid = connPid[ev.Conn], int32(ev.Conn)
		}
		recs = append(recs, r)
	}
	for id := range open {
		closeState(ConnID(id), last)
	}

	// Request spans as async begin/end pairs on the carrying connection:
	// async slices may overlap (pipelining), which thread slices may not.
	for i := range e.spans {
		sp := &e.spans[i]
		if sp.Conn == 0 || sp.Done == NoTime {
			continue // never written or abandoned (e.g. connection reset)
		}
		pid, tid := connPid[sp.Conn], int32(sp.Conn)
		recs = append(recs,
			record{ts: usec(spanStart(sp)), ph: 'b', pid: pid, tid: tid, src: srcSpanBegin, ref: int32(i)},
			record{ts: usec(sp.Done), ph: 'e', pid: pid, tid: tid, src: srcSpanEnd, ref: int32(i)})
	}
	return recs
}

// spanStart is where a request's async slice begins.
func spanStart(sp *SpanInfo) sim.Time {
	if sp.Queued == NoTime {
		return sp.Written
	}
	return sp.Queued
}

// chunkSize bounds one Write of the export.
const chunkSize = 32 << 10

// encoder renders records into buf and hands w full chunks.
type encoder struct {
	w   io.Writer
	buf []byte
	err error

	events  []Event
	packets Packets
	conns   []ConnInfo
	spans   []SpanInfo
	path    []PathSlice
}

// spill writes out every full chunk in buf, keeping the remainder.
func (e *encoder) spill() {
	for len(e.buf) >= chunkSize && e.err == nil {
		_, e.err = e.w.Write(e.buf[:chunkSize])
		e.buf = e.buf[:copy(e.buf, e.buf[chunkSize:])]
	}
}

// writePerfetto is the shared export body: collect the bus's last n
// events, its packets, tables and path, sort, render. A nil bus exports
// an empty timeline.
func (b *Bus) writePerfetto(w io.Writer, n int, path []PathSlice) error {
	e := encoder{w: w}
	if b != nil {
		e.events = b.events[len(b.events)-min(n, len(b.events)):]
		e.packets, e.conns, e.spans, e.path = b.packets, b.conns, b.spans, path
	}
	recs := e.collect()
	slices.SortStableFunc(recs, compareRecords)

	e.buf = append(make([]byte, 0, chunkSize+1024), `{"traceEvents":[`...)
	for i := range recs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.record(&recs[i])
		if e.spill(); e.err != nil {
			return e.err
		}
	}
	e.buf = append(e.buf, `],"displayTimeUnit":"ms"}`+"\n"...)
	if e.spill(); e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// record appends one record as a JSON object, fields in the order
// name, ph, ts, dur, pid, tid, cat, id, s, args; tid, cat, id, s and
// args are left out when empty, dur on everything but "X".
func (e *encoder) record(r *record) {
	b := append(e.buf, `{"name":"`...)
	switch r.src {
	case srcEvent:
		ev := &e.events[r.ref]
		row := &kindTable[ev.Kind]
		b = append(b, row.prefix...)
		switch row.suffix {
		case sufNote:
			b = appendEscaped(b, ev.Note)
		case sufConn:
			b = strconv.AppendInt(b, int64(ev.Conn), 10)
		}
		b = keys(b, r, ev.Time)
		b = append(b, shapes[row.shape].tail...)
		b = appendEventArgs(b, ev, row.args)
	case srcPacket:
		p := e.packets.Packet(int(r.ref))
		if p.Dropped {
			b = keys(append(b, "drop"...), r, p.At)
			b = append(b, `,"s":"t","args":{"wire_bytes":`...)
			b = strconv.AppendInt(b, int64(p.Bytes), 10)
		} else {
			b = append(strconv.AppendInt(append(b, "pkt "...), int64(p.Bytes), 10), 'B')
			b = keys(b, r, p.Start)
			b = append(b, `,"cat":"wire","args":{"arrive_us":`...)
			b = appendUsec(b, p.Arrive)
		}
		b = append(b, '}')
	case srcSpanBegin, srcSpanEnd:
		sp := &e.spans[r.ref]
		at := sp.Done
		if r.src == srcSpanBegin {
			at = spanStart(sp)
		}
		b = keys(appendSpanName(b, sp), r, at)
		b = append(b, `,"cat":"request","id":"span-`...)
		b = strconv.AppendInt(b, int64(sp.ID), 10)
		b = append(b, '"')
		if r.src == srcSpanBegin {
			b = appendSpanArgs(b, sp)
		}
	case srcPathSlice:
		// Named after the gating request; a span's ID is its index + 1.
		ps := &e.path[r.ref]
		if i := int(ps.Span) - 1; i >= 0 && i < len(e.spans) {
			b = appendSpanName(b, &e.spans[i])
		} else {
			b = strconv.AppendInt(append(b, "span-"...), int64(ps.Span), 10)
		}
		b = keys(b, r, ps.From)
		b = append(b, `,"cat":"critical-path","args":{"span":`...)
		b = strconv.AppendInt(b, int64(ps.Span), 10)
		b = append(b, '}')
	default: // metadata: what the pid, or the pid's tid, is called
		name := "thread_name"
		if r.src == srcHostProcess || r.src == srcWireProcess || r.src == srcPathProcess {
			name = "process_name"
		}
		b = keys(append(b, name...), r, 0)
		b = append(b, `,"args":{"name":"`...)
		switch r.src {
		case srcHostProcess:
			b = appendEscaped(b, connHost(e.conns[r.ref].Local))
		case srcConnThread:
			b = appendEscaped(b, e.conns[r.ref].Local)
			b = append(b, " → "...)
			b = appendEscaped(b, e.conns[r.ref].Remote)
		case srcWireProcess:
			b = append(b, "wire"...)
		case srcWireThread:
			b = appendEscaped(b, e.packets.Packet(int(r.ref)).Link)
		case srcPathProcess:
			b = append(b, "critical path"...)
		case srcPathThread:
			b = append(b, "gating requests"...)
		}
		b = append(b, `"}`...)
	}
	e.buf = append(b, '}')
}

// appendSpanName appends a request's display name, "METHOD path".
func appendSpanName(b []byte, sp *SpanInfo) []byte {
	b = append(appendEscaped(b, sp.Method), ' ')
	return appendEscaped(b, sp.Path)
}

// keys closes the name and appends ph, ts, dur, pid and tid. at is the
// instant r.ts was computed from.
func keys(b []byte, r *record, at sim.Time) []byte {
	b = append(b, `","ph":"`...)
	b = append(b, r.ph)
	b = append(b, `","ts":`...)
	b = appendUsec(b, at)
	if r.ph == 'X' {
		d := usec(r.end) - r.ts
		if d < 0 {
			d = 0
		}
		b = append(b, `,"dur":`...)
		b = appendFloat(b, d)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(r.pid), 10)
	if r.tid != 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(r.tid), 10)
	}
	return b
}

// appendEventArgs appends the args object a kindTable row describes,
// nothing for a row without args.
func appendEventArgs(b []byte, ev *Event, args []kindArg) []byte {
	for i, a := range args {
		if i == 0 {
			b = append(b, `,"args":{"`...)
		} else {
			b = append(b, `,"`...)
		}
		b = append(b, a.key...)
		b = append(b, `":`...)
		switch a.val {
		case valA:
			b = strconv.AppendInt(b, ev.A, 10)
		case valB:
			b = strconv.AppendInt(b, ev.B, 10)
		case valAMicro:
			b = strconv.AppendInt(b, ev.A/1e3, 10)
		case valAIsOne:
			b = strconv.AppendBool(b, ev.A == 1)
		}
	}
	if len(args) > 0 {
		b = append(b, '}')
	}
	return b
}

// appendSpanArgs appends a request's args in sorted key order.
func appendSpanArgs(b []byte, sp *SpanInfo) []byte {
	b = append(b, `,"args":{"body_bytes":`...)
	b = strconv.AppendInt(b, sp.Bytes, 10)
	if sp.Pushed {
		b = append(b, `,"pushed":true`...)
	}
	b = append(b, `,"queued_us":`...)
	b = appendUsec(b, sp.Queued)
	if sp.Retried {
		b = append(b, `,"retried":true`...)
	}
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(sp.Status), 10)
	if sp.FirstByte != NoTime && sp.Written != NoTime {
		b = append(b, `,"ttfb_us":`...)
		b = appendFloat(b, usec(sp.FirstByte)-usec(sp.Written))
	}
	if sp.Via != "" {
		b = append(b, `,"via":"`...)
		b = appendEscaped(b, sp.Via)
		b = append(b, '"')
	}
	b = append(b, `,"written_us":`...)
	b = appendUsec(b, sp.Written)
	return append(b, '}')
}

// appendUsec appends usec(t) as encoding/json would. Below 1e15 ns the
// exact decimal t/1000 has at most 15 significant digits, so it is the
// shortest form that parses back to float64(t)/1e3 and can be written
// from the integer.
func appendUsec(b []byte, t sim.Time) []byte {
	if t <= -1e15 || t >= 1e15 {
		return appendFloat(b, usec(t))
	}
	n := int64(t)
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	b = strconv.AppendInt(b, n/1000, 10)
	if f := n % 1000; f != 0 {
		b = append(b, '.', byte('0'+f/100))
		if f%100 != 0 {
			b = append(b, byte('0'+f/10%10))
			if f%10 != 0 {
				b = append(b, byte('0'+f%10))
			}
		}
	}
	return b
}

// appendFloat appends f as encoding/json does: the shortest decimal that
// parses back to f, in exponent form only below 1e-6 or from 1e21, with
// a two-digit exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json does with HTML escaping on: the two-character forms for
// quote, backslash, \b \f \n \r \t; \u00XX for other control bytes and
// for < > &; U+2028 and U+2029 as \u2028 and \u2029 (valid JSON, not valid
// JavaScript); each byte of invalid UTF-8 as \ufffd.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), `\u202`...)
				b = append(b, hexDigits[r&0xf])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(append(b, s[start:i]...), '\\')
		switch c {
		case '"', '\\':
			b = append(b, c)
		case '\b':
			b = append(b, 'b')
		case '\f':
			b = append(b, 'f')
		case '\n':
			b = append(b, 'n')
		case '\r':
			b = append(b, 'r')
		case '\t':
			b = append(b, 't')
		default:
			b = append(b, 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	return append(b, s[start:]...)
}
