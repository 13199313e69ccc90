package tcpsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// corkScript sends three application messages with an output buffer
// flushed after the second and before the close: buffered by the caller
// and handed over with Write, as servers did before Cork, or marshalled
// straight into the send buffer with Cork and released with Flush. It
// returns every packet the network carried, rendered, and what the
// server received.
func corkScript(t *testing.T, cork, noDelay bool) (packets []string, received []byte) {
	t.Helper()
	s, n, client, server := testNet(t, wanCfg())
	n.PacketHook = func(ev PacketEvent) {
		packets = append(packets, fmt.Sprintf("%v %s>%s %s seq=%d ack=%d len=%d",
			ev.Time, ev.Seg.From, ev.Seg.To, ev.Seg.Flags, ev.Seg.Seq, ev.Seg.Ack, len(ev.Seg.Payload)))
	}
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{
			Data:      func(c *Conn, d []byte) { received = append(received, d...) },
			PeerClose: func(c *Conn) { c.CloseWrite() },
		}
	})
	msgs := [][]byte{bytes.Repeat([]byte("a"), 700), bytes.Repeat([]byte("b"), 3000), bytes.Repeat([]byte("c"), 90)}
	var cli *Conn
	var outBuf []byte
	queue := func(m []byte) {
		if cork {
			if n := cli.Cork(func(b []byte) []byte { return append(b, m...) }); n != len(m) {
				t.Fatalf("Cork queued %d of %d bytes", n, len(m))
			}
		} else {
			outBuf = append(outBuf, m...)
		}
	}
	flush := func() {
		if cork {
			cli.Flush()
		} else if len(outBuf) > 0 {
			cli.Write(outBuf)
			outBuf = nil
		}
	}
	cli = client.Dial("server", 80, Options{NoDelay: noDelay}, &Callbacks{
		Connect: func(c *Conn) {
			queue(msgs[0])
			queue(msgs[1])
			if cork && (c.Corked() != 3700 || c.TotalWritten() != 0) {
				t.Errorf("before the flush: Corked = %d, TotalWritten = %d; want 3700 held back, 0 written", c.Corked(), c.TotalWritten())
			}
			flush()
			flush() // nothing buffered: must not even attempt a send
			s.Schedule(300*time.Millisecond, func() {
				queue(msgs[2])
				// ACKs and timers run while bytes are corked; none may leak.
				s.Schedule(500*time.Millisecond, func() {
					flush()
					c.CloseWrite()
				})
			})
		},
	})
	s.Run()
	if cli.TotalWritten() != 3790 || cli.Corked() != 0 {
		t.Errorf("cork=%v: TotalWritten = %d, Corked = %d; want 3790, 0", cork, cli.TotalWritten(), cli.Corked())
	}
	return packets, received
}

// Cork then Flush must put exactly the packets on the wire that
// buffering in the application and calling Write does: same segments,
// same instants, same flags, with Nagle on or off. That equivalence is
// what lets the servers marshal into the connection without moving a
// single golden.
func TestCorkFlushEqualsBufferedWrite(t *testing.T) {
	for _, noDelay := range []bool{true, false} {
		wantPackets, wantData := corkScript(t, false, noDelay)
		gotPackets, gotData := corkScript(t, true, noDelay)
		if !bytes.Equal(gotData, wantData) || len(wantData) != 3790 {
			t.Fatalf("received %d bytes corked, %d buffered, want 3790 identical", len(gotData), len(wantData))
		}
		if len(gotPackets) != len(wantPackets) {
			t.Fatalf("%d packets corked, %d buffered", len(gotPackets), len(wantPackets))
		}
		for i := range wantPackets {
			if gotPackets[i] != wantPackets[i] {
				t.Fatalf("noDelay=%v packet %d differs:\n corked   %s\n buffered %s", noDelay, i, gotPackets[i], wantPackets[i])
			}
		}
	}
}

// Write and CloseWrite release what is corked, in order, and a closed
// write side refuses Cork the way it refuses Write.
func TestCorkReleasedByWriteAndClose(t *testing.T) {
	s, _, client, server := testNet(t, fastCfg())
	var received []byte
	server.Listen(80, Options{}, func(c *Conn) Handler {
		return &Callbacks{Data: func(c *Conn, d []byte) { received = append(received, d...) }}
	})
	add := func(text string) func([]byte) []byte {
		return func(b []byte) []byte { return append(b, text...) }
	}
	var afterClose int
	client.Dial("server", 80, Options{}, &Callbacks{
		Connect: func(c *Conn) {
			c.Cork(add("one "))
			c.Write([]byte("two "))
			c.Cork(add("three"))
			c.CloseWrite()
			afterClose = c.Cork(add(" four"))
		},
	})
	s.Run()
	if string(received) != "one two three" || afterClose != 0 {
		t.Fatalf("received %q, Cork after close queued %d; want %q, 0", received, afterClose, "one two three")
	}
}
