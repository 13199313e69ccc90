package tcpsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Send-script operations.
const (
	opWrite = iota
	opCork
	opCorkRef
	opFlush
	opCloseWrite
	numOps
)

// scriptSizes are the payload sizes a script step picks from: empty, one
// byte, around one and two MSS, and sizes that leave span boundaries in
// the middle of segments.
var scriptSizes = []int{0, 1, 2, 100, 1459, 1460, 1461, 2921, 700, 5000, 9000}

// scriptDelays are the pauses before a script step: back to back, within
// a round trip, and after the window has drained.
var scriptDelays = []time.Duration{0, 0, time.Millisecond, 30 * time.Millisecond, 400 * time.Millisecond}

// sendStep is one application call of a send script.
type sendStep struct {
	op    int
	size  int
	delay time.Duration
	grow  bool // Cork's marshal grows its own array, though what it appends may fit
}

// decodeScript turns fuzz input into steps, three bytes a step.
func decodeScript(data []byte) []sendStep {
	var steps []sendStep
	for ; len(data) >= 3 && len(steps) < 64; data = data[3:] {
		steps = append(steps, sendStep{
			op:    int(data[0]) % numOps,
			size:  scriptSizes[int(data[1])%len(scriptSizes)],
			delay: scriptDelays[int(data[2])%len(scriptDelays)],
			grow:  data[0]&0x80 != 0,
		})
	}
	return steps
}

// renderPacket formats a packet event as the packet trace comparisons
// print it.
func renderPacket(ev PacketEvent) string {
	return fmt.Sprintf("%v %s>%s %s seq=%d ack=%d len=%d",
		ev.Time, ev.Seg.From, ev.Seg.To, ev.Seg.Flags, ev.Seg.Seq, ev.Seg.Ack, len(ev.Seg.Payload))
}

// runSendScript plays steps on a client connection and returns the packet
// trace, what the server received and how many segments were resent. With
// contiguous set it is the reference: the application buffers what Cork
// and CorkRef would queue and hands it over with one Write at each flush,
// as a contiguous send buffer would take it. Otherwise it checks, at the
// end of the run, that no payload a segment carried was written after it
// was sent.
func runSendScript(t *testing.T, steps []sendStep, noDelay, lossy, contiguous bool) (packets []string, received []byte, resent int) {
	t.Helper()
	cfg := wanCfg()
	if lossy {
		// Drop every ninth of the first 60 packets each way: RTO and
		// go-back-N resends, of straddling segments too.
		cfg.Loss = func(index, wire int) bool { return index%9 == 4 && index < 60 }
	}
	s, n, client, server := testNet(t, cfg)
	type sent struct{ copied, kept []byte }
	var payloads []sent
	n.PacketHook = func(ev PacketEvent) {
		packets = append(packets, renderPacket(ev))
		if ev.Retrans {
			resent++
		}
		if p := ev.Seg.Payload; len(p) > 0 {
			if cap(p) != len(p) {
				t.Errorf("segment seq=%d: payload capacity %d beyond its %d bytes", ev.Seg.Seq, cap(p), len(p))
			}
			payloads = append(payloads, sent{append([]byte(nil), p...), p})
		}
	}
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data:      func(c *Conn, d []byte) { received = append(received, d...) },
			PeerClose: func(c *Conn) { c.CloseWrite() },
		}
	})

	var next uint32 // a pseudo-random stream, so that no shift of bytes goes unseen
	fill := func(size int) []byte {
		b := make([]byte, size)
		for i := range b {
			next = next*1103515245 + 12345
			b[i] = byte(next >> 16)
		}
		return b
	}
	var appBuf []byte // the reference's output buffer
	closed := false
	var written, pending int64 // released and corked bytes
	var conn *Conn
	play := func(st sendStep) {
		c := conn
		switch st.op {
		case opWrite:
			p := fill(st.size)
			want := error(nil)
			if closed {
				want = ErrWriteAfterClose
			} else {
				written += pending + int64(len(p))
				pending = 0
			}
			var err error
			if contiguous {
				err = c.Write(append(appBuf, p...))
				appBuf = nil
			} else {
				err = c.Write(p)
			}
			if err != want {
				t.Errorf("Write: %v, want %v", err, want)
			}
			clear(p) // Write copied it
		case opCork, opCorkRef:
			p := fill(st.size)
			if !closed {
				pending += int64(len(p))
			}
			if contiguous {
				if !closed {
					appBuf = append(appBuf, p...)
				}
				return
			}
			var got int
			if st.op == opCorkRef {
				got = c.CorkRef(p)
			} else {
				got = c.Cork(func(b []byte) []byte {
					if st.grow {
						b = slices.Grow(b, len(p)+arenaBlock)
					}
					return append(b, p...)
				})
				clear(p)
			}
			if want := len(p); closed && got != 0 || !closed && got != want {
				t.Errorf("queued %d of %d bytes (closed %v)", got, want, closed)
			}
		case opFlush, opCloseWrite:
			written += pending
			pending = 0
			if contiguous && len(appBuf) > 0 {
				c.Write(appBuf)
				appBuf = nil
			} else if !contiguous {
				c.Flush()
			}
			if st.op == opCloseWrite {
				c.CloseWrite()
				closed = true
			}
		}
	}
	conn = client.Dial("server", 80, Options{NoDelay: noDelay}, &Callbacks{
		Connect: func(c *Conn) {
			at := time.Duration(0)
			for _, st := range steps {
				at += st.delay
				s.Schedule(at, func() { play(st) })
			}
			s.Schedule(at+time.Millisecond, func() { play(sendStep{op: opCloseWrite}) })
		},
	})
	s.Run()
	if conn.TotalWritten() != written {
		t.Errorf("TotalWritten = %d, want %d", conn.TotalWritten(), written)
	}
	for i, p := range payloads {
		if !bytes.Equal(p.copied, p.kept) {
			t.Fatalf("payload of segment %d changed after it was sent", i)
		}
	}
	return packets, received, resent
}

// checkSendScript runs steps through the span queue and through the
// contiguous reference, with Nagle on and off and on a clean and a lossy
// path, and requires the same packets and the same bytes received. It
// returns the segments resent.
func checkSendScript(t *testing.T, steps []sendStep) (resent int) {
	t.Helper()
	for _, noDelay := range []bool{false, true} {
		for _, lossy := range []bool{false, true} {
			wantPackets, wantData, _ := runSendScript(t, steps, noDelay, lossy, true)
			gotPackets, gotData, n := runSendScript(t, steps, noDelay, lossy, false)
			resent += n
			if !bytes.Equal(gotData, wantData) {
				t.Fatalf("noDelay=%v lossy=%v: received %d bytes, the reference %d, or different ones",
					noDelay, lossy, len(gotData), len(wantData))
			}
			if i, ok := firstDiff(gotPackets, wantPackets); !ok {
				t.Fatalf("noDelay=%v lossy=%v: packet %d differs (of %d and %d):\n queue     %s\n reference %s",
					noDelay, lossy, i, len(gotPackets), len(wantPackets), at(gotPackets, i), at(wantPackets, i))
			}
		}
	}
	return resent
}

func firstDiff(a, b []string) (int, bool) {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}

// The span queue puts exactly the packets on the wire, and the bytes
// into the peer, that a contiguous send buffer fed the same bytes at the
// same flushes does: heads, bodies queued by reference and copied writes,
// with segments inside a span, straddling spans, and resent after loss.
// No payload changes after it is sent.
func TestSendQueueMatchesContiguous(t *testing.T) {
	// A response-shaped script: head, body by reference, flushed; then two
	// pipelined responses in one flush, and a write after them.
	if resent := checkSendScript(t, []sendStep{
		{op: opCork, size: 100}, {op: opCorkRef, size: 5000}, {op: opFlush},
		{op: opCork, size: 100, delay: 30 * time.Millisecond}, {op: opCorkRef, size: 1461},
		{op: opCork, size: 100}, {op: opCorkRef, size: 2921}, {op: opFlush},
		{op: opWrite, size: 700, delay: 400 * time.Millisecond},
	}); resent == 0 {
		t.Error("the lossy path resent nothing")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		data := make([]byte, 3*(1+rng.Intn(20)))
		rng.Read(data)
		checkSendScript(t, decodeScript(data))
	}
}

func FuzzSendQueue(f *testing.F) {
	f.Add([]byte{opCork, 3, 0, opCorkRef, 9, 0, opFlush, 0, 0})
	f.Add([]byte{opCorkRef, 6, 0, opCork | 0x80, 1, 0, opCorkRef, 7, 2, opWrite, 4, 0, opFlush, 0, 3})
	f.Add([]byte{opWrite, 10, 0, opCorkRef, 5, 1, opCloseWrite, 0, 0, opCork, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSendScript(t, decodeScript(data))
	})
}
