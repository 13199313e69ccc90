package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

// walkStats is trace.Capture's statistics as they were computed before
// the capture kept running tallies: one pass over the retained packet
// events per query, serverHost == "" meaning no pair filtering. It is
// the oracle the tallies are checked against.
func walkStats(events []tcpsim.PacketEvent, clientHost, serverHost string) trace.Stats {
	var s trace.Stats
	first := true
	for _, ev := range events {
		if serverHost != "" {
			from, to := ev.Seg.From.Host, ev.Seg.To.Host
			if !(from == clientHost && to == serverHost) &&
				!(from == serverHost && to == clientHost) {
				continue
			}
		}
		s.Packets++
		s.PayloadBytes += int64(len(ev.Seg.Payload))
		s.WireBytes += int64(ev.WireBytes)
		if ev.Seg.From.Host == clientHost {
			s.ClientToServer++
		} else {
			s.ServerToClient++
		}
		if ev.Retrans {
			s.Retransmissions++
			if ev.Seg.From.Host == clientHost {
				s.RetransC2S++
			} else {
				s.RetransS2C++
			}
		}
		if ev.Dropped {
			s.Dropped++
		}
		if ev.Seg.Flags&tcpsim.FlagSYN != 0 && ev.Seg.Flags&tcpsim.FlagACK == 0 && ev.Seg.From.Host == clientHost {
			s.Connections++
		}
		if first {
			s.First = ev.Time
			first = false
		}
		s.Last = ev.Time
	}
	return s
}

// TestTalliesMatchEventWalk replays every scenario any registered
// experiment executes with the packet trace retained and compares the
// running tallies with a walk over the events, for the three views
// core.Run reports — the client's whole capture, the last mile and the
// upstream link — and then checks that a run which retains nothing
// reports the same statistics.
func TestTalliesMatchEventWalk(t *testing.T) {
	s := session(t, 1)
	for _, sc := range Scenarios() {
		kept, err := core.Run(sc, s.Site, core.WithCapture())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		events := kept.Capture.Events()
		if len(events) == 0 {
			t.Fatalf("%s: WithCapture retained no events", sc)
		}
		for _, view := range [][2]string{{"client", ""}, {"client", "proxy"}, {"proxy", "server"}} {
			got := kept.Capture.StatsBetween(view[0], view[1])
			if want := walkStats(events, view[0], view[1]); got != want {
				t.Errorf("%s: tallies for %v:\n got %+v\nwant %+v", sc, view, got, want)
			}
		}
		counted, err := core.Run(sc, s.Site)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if counted.Capture != nil || counted.Stats != kept.Stats || counted.Elapsed != kept.Elapsed {
			t.Errorf("%s: a run without capture reports %+v, with capture %+v", sc, counted.Stats, kept.Stats)
		}
		if (counted.Origin == nil) != (kept.Origin == nil) || counted.Origin != nil && *counted.Origin != *kept.Origin {
			t.Errorf("%s: origin-link statistics differ between a run with and without capture", sc)
		}
	}
}
