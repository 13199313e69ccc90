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
	replayed(t).report(t, "tallies")
}

// checkTallies compares the observed run's tallies with a walk over its
// retained events, and the plain run's statistics with the observed
// run's.
func checkTallies(kept, counted *core.RunResult, f *finding) {
	events := kept.Capture.Events()
	if len(events) == 0 {
		f.errorf("WithCapture retained no events")
		return
	}
	for _, view := range [][2]string{{"client", ""}, {"client", "proxy"}, {"proxy", "server"}} {
		got := kept.Capture.StatsBetween(view[0], view[1])
		if want := walkStats(events, view[0], view[1]); got != want {
			f.errorf("tallies for %v:\n got %+v\nwant %+v", view, got, want)
		}
	}
	if counted.Capture != nil || counted.Stats != kept.Stats || counted.Elapsed != kept.Elapsed {
		f.errorf("a run without capture reports %+v, with capture %+v", counted.Stats, kept.Stats)
	}
	if !samePointee(counted.Origin, kept.Origin) {
		f.errorf("origin-link statistics differ between a run with and without capture")
	}
}
