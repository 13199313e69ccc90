package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// The substrate workload drives sim, netem and tcpsim through their
// public API with no HTTP on top — the iperf beside the proxy. Every
// item runs on its own simulator over a 100 Mbit/s, 5 ms path.

const (
	bulkBytes      = 2_000_000
	tinygramWrites = 5000
	churnConns     = 200
	stormDepth     = 4096
	stormEvents    = 300_000
)

// substrateRound is one round's item mix.
var substrateRound = []struct {
	kind string
	n    int
}{
	{"bulk_clean", 10}, {"bulk_lossy", 10}, {"tinygram", 2}, {"conn_churn", 1}, {"timer_storm", 2},
}

func substrateWorkload() *workload {
	w := &workload{name: "substrate"}
	items := map[string]func(seed uint64, rec *recorder) opResult{
		"bulk_clean": func(_ uint64, rec *recorder) opResult { return bulkItem("bulk_clean", nil, rec) },
		"bulk_lossy": func(seed uint64, rec *recorder) opResult {
			return bulkItem("bulk_lossy", netem.GilbertElliott(seed, 0.01, 0.3, 0, 0.5), rec)
		},
		"tinygram":    tinygramItem,
		"conn_churn":  churnItem,
		"timer_storm": stormItem,
	}
	for _, mix := range substrateRound {
		item := items[mix.kind]
		for i := 0; i < mix.n; i++ {
			w.ops = append(w.ops, op{name: mix.kind, run: func(seed uint64, idx int, rec *recorder) opResult {
				var r opResult
				rec.time("substrate."+mix.kind, idx, func() { r = item(seed, rec) })
				return r
			}})
		}
	}
	w.warmup = w.warmupRound
	return w
}

// substrateNet is a two-host network over the substrate path; loss, if
// any, applies to the server→client (data) direction.
type substrateNet struct {
	s              *sim.Simulator
	n              *tcpsim.Network
	client, server *tcpsim.Host
	path           *netem.Path
}

func newSubstrateNet(loss netem.LossFunc) *substrateNet {
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	t := &substrateNet{s: s, n: n, client: n.AddHost("client"), server: n.AddHost("server")}
	up := netem.Config{BitsPerSecond: 100_000_000, PropagationDelay: 5 * time.Millisecond, MTU: 1500}
	down := up
	down.Loss = loss
	t.path = netem.NewAsymPath(s, "t", up, down)
	n.ConnectHosts(t.client, t.server, t.path)
	return t
}

// result assembles an item's fingerprint and counts from the network.
func (t *substrateNet) result(received int64, retransmits int) opResult {
	var r opResult
	r.fp = fingerprint{uint64(t.n.Packets()), uint64(received), uint64(t.s.Now()), t.s.Stats().Fired}
	r.counts[cEvents] = t.s.Stats().Fired
	r.counts[cPackets] = uint64(t.n.Packets())
	r.counts[cRetransmits] = uint64(retransmits)
	r.counts[cRTOTimeouts] = uint64(t.n.RTOTimeouts())
	r.counts[cDrops] = uint64(t.path.Dropped())
	return r
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// bulkOptions never gives a transfer up. At tcpsim's default of 10
// consecutive retransmissions about one lossy transfer in 20 000 meets a
// loss burst long enough to time the connection out, and whether a run
// has one depends on its seed. Retrying until the burst ends always
// completes, and changes nothing for a transfer that needs 10 or fewer.
var bulkOptions = tcpsim.Options{MaxRetries: 1 << 20}

// bulkItem sends 2 MB from server to client over an established
// connection, in full-MSS packets, and checks that all of it arrived.
func bulkItem(kind string, loss netem.LossFunc, rec *recorder) opResult {
	t := newSubstrateNet(loss)
	var srvConn *tcpsim.Conn
	var received int64
	t.server.Listen(80, bulkOptions, func(*tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, _ []byte) { srvConn = c }}
	})
	t.client.Dial("server", 80, bulkOptions, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { _ = c.Write([]byte("GET")) }, // a fresh connection accepts writes
		Data:    func(_ *tcpsim.Conn, d []byte) { received += int64(len(d)) },
	})
	t.s.Run() // handshake and request; the connection stays open
	if srvConn == nil {
		return opResult{failed: "request never reached the server"}
	}
	var m0 uint64
	if rec != nil {
		m0 = mallocs()
	}
	p0, start := t.n.Packets(), time.Now()
	if err := srvConn.Write(make([]byte, bulkBytes)); err != nil {
		return opResult{failed: err.Error()}
	}
	t.s.Run()
	d := time.Since(start)
	packets := float64(t.n.Packets() - p0)
	rec.observe("tcpsim."+kind+"_packets_per_s", packets/d.Seconds())
	if rec != nil && kind == "bulk_clean" {
		rec.observe("tcpsim.bulk_clean_allocs_per_packet", float64(mallocs()-m0)/packets)
	}
	r := t.result(received, srvConn.Retransmissions())
	if received != bulkBytes {
		r.failed = fmt.Sprintf("received %d of %d bytes", received, bulkBytes)
	}
	return r
}

// tinygramItem makes 5000 one-byte writes with Nagle off, 200 µs apart:
// minimum-size packets, where per-packet cost is everything.
func tinygramItem(_ uint64, rec *recorder) opResult {
	t := newSubstrateNet(nil)
	var received int64
	t.server.Listen(80, tcpsim.Options{}, func(*tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(_ *tcpsim.Conn, d []byte) { received += int64(len(d)) }}
	})
	var conn *tcpsim.Conn
	var writeErr error
	one := []byte{'x'}
	conn = t.client.Dial("server", 80, tcpsim.Options{NoDelay: true}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) {
			for i := 0; i < tinygramWrites; i++ {
				t.s.Schedule(time.Duration(i)*200*time.Microsecond, func() {
					if err := c.Write(one); err != nil {
						writeErr = err
					}
				})
			}
		},
	})
	start := time.Now()
	t.s.Run()
	rec.observe("tcpsim.tinygram_packets_per_s", float64(t.n.Packets())/time.Since(start).Seconds())
	r := t.result(received, conn.Retransmissions())
	switch {
	case writeErr != nil:
		r.failed = writeErr.Error()
	case received != tinygramWrites:
		r.failed = fmt.Sprintf("received %d of %d bytes", received, tinygramWrites)
	}
	return r
}

// churnItem runs 200 dial → request → response → close cycles, one after
// the other.
func churnItem(_ uint64, rec *recorder) opResult {
	t := newSubstrateNet(nil)
	reply := make([]byte, 100)
	t.server.Listen(80, tcpsim.Options{}, func(*tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, _ []byte) {
			_ = c.Write(reply) // the request just arrived on an open connection
			c.Close()
		}}
	})
	var received int64
	done := 0
	var dial func()
	dial = func() {
		t.client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
			Connect:   func(c *tcpsim.Conn) { _ = c.Write([]byte("GET")) },
			Data:      func(_ *tcpsim.Conn, d []byte) { received += int64(len(d)) },
			PeerClose: func(c *tcpsim.Conn) { c.Close() },
			Close: func(*tcpsim.Conn) {
				if done++; done < churnConns {
					dial()
				}
			},
		})
	}
	start := time.Now()
	dial()
	t.s.Run()
	rec.observe("tcpsim.conn_churn_conns_per_s", float64(done)/time.Since(start).Seconds())
	r := t.result(received, 0)
	if want := int64(churnConns * len(reply)); done != churnConns || received != want {
		r.failed = fmt.Sprintf("%d of %d connections closed, %d of %d bytes", done, churnConns, received, want)
	}
	return r
}

// stormState drives a self-perpetuating timer population: every firing
// schedules a successor, so the pending set stays at its seeded depth.
type stormState struct {
	s    *sim.Simulator
	rng  *sim.Rand
	left int
}

// stormFire uses the delay mix of the repository's BenchmarkEngine: one
// event in eight is retransmission-scale (out to 200 ms), the rest
// packet-scale (µs).
func stormFire(a any) {
	st := a.(*stormState)
	if st.left == 0 {
		return
	}
	st.left--
	scale := 500 * time.Microsecond
	if st.left&7 == 0 {
		scale = 200 * time.Millisecond
	}
	st.s.ScheduleArg(time.Duration(st.rng.Intn(int(scale))), stormFire, st)
}

// stormItem fires 300 k timer events at depth 4096 on the default engine.
func stormItem(seed uint64, rec *recorder) opResult {
	s := sim.New()
	st := &stormState{s: s, rng: sim.NewRand(seed | 1), left: stormEvents}
	start := time.Now()
	for i := 0; i < stormDepth; i++ {
		s.ScheduleArg(time.Duration(st.rng.Intn(int(500*time.Microsecond))), stormFire, st)
	}
	s.Run()
	fired := s.Stats().Fired
	rec.observe("sim.timer_storm_events_per_s", float64(fired)/time.Since(start).Seconds())
	var r opResult
	r.fp = fingerprint{0, 0, uint64(s.Now()), fired}
	r.counts[cEvents] = fired
	if want := uint64(stormEvents + stormDepth); fired != want {
		r.failed = fmt.Sprintf("fired %d of %d events", fired, want)
	}
	return r
}
