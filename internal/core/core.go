// Package core is the public experiment API of the reproduction: it wires
// the simulated network (netem, tcpsim), servers (httpserver), and clients
// (httpclient) into runnable scenarios, and measures whole grids of them
// (see grid.go) for the experiments declared in internal/experiments.
//
// A Scenario names one cell of the paper's measurement matrix — server
// profile × client mode × network environment × workload. Run executes it
// once deterministically, with functional options selecting packet
// capture, observers, or structured per-run metrics; Sweep repeats
// it with seeded jitter across a worker pool, as the paper averaged five
// runs "to make up for network fluctuations".
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/causality"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/lzw"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/webgen"
)

// Scenario is one experiment configuration.
type Scenario struct {
	Server   httpserver.Profile
	Client   httpclient.Mode
	Env      netem.Environment
	Workload httpclient.Workload

	// Seed drives all deterministic randomness in this run.
	Seed uint64
	// Jitter enables ±10% CPU and ±3% RTT perturbation, reproducing the
	// run-to-run variation the paper averaged away.
	Jitter bool

	// ModemCompression enables V.42bis-style link compression on the PPP
	// link.
	ModemCompression bool

	// Fault selects a deterministic fault-injection profile (seeded from
	// Seed): server misbehaviour (early close, truncation, abort, stall),
	// framed-protocol misbehaviour (mid-stream resets, frame truncation,
	// garbage frames, aborted pushes, settings stalls), and/or link loss
	// (burst loss, flaps, blackholes). On a direct run
	// the link faults apply to the client↔server path; with a proxy they
	// apply to the proxy↔origin link and the server faults to the origin,
	// so the proxy's own retry policy is exercised. A non-None fault also
	// arms the client's (and proxy's) default recovery policy.
	Fault faults.Profile

	// ReviseFraction, when positive on the Revalidate workload, serves a
	// revised site (that fraction of images replaced, page edited) while
	// the client's cache was primed on the original — the revisit-after-
	// revision situation behind the paper's range-request discussion.
	ReviseFraction float64

	// MuxFIFO switches the mux DATA pump (both endpoints) from the
	// default (priority, stream-id) scheduling to strict first-come-
	// first-served stream order — the stream-priority ablation. It only
	// affects the framed client modes.
	MuxFIFO bool

	// ServerOverride and ClientOverride, when non-nil, replace the
	// profile- and mode-derived configurations.
	ServerOverride *httpserver.Config
	ClientOverride *httpclient.Config

	// Proxy, when non-nil, interposes a shared caching proxy between the
	// client and the origin: the client's Env becomes the last-mile link
	// (client ↔ proxy) and Proxy.Env the upstream link (proxy ↔ origin).
	Proxy *ProxyScenario
}

// ProxyScenario configures the caching proxy tier of a multi-hop run.
type ProxyScenario struct {
	// Env is the proxy ↔ origin link environment.
	Env netem.Environment
	// CacheBytes is the shared cache capacity (default 8 MiB).
	CacheBytes int64
	// Warm primes the cache with the whole site before the run, as if an
	// earlier client had pulled it through minutes ago (entries fresh).
	// Stale primes the same way but expires every entry, modelling a
	// cache filled on an earlier day: each use must revalidate. Stale
	// wins when both are set.
	Warm  bool
	Stale bool
}

// String names the proxy variant as used in scenario strings.
func (p *ProxyScenario) String() string {
	s := "proxy:" + p.Env.String()
	if p.Stale {
		return s + ":stale"
	}
	if p.Warm {
		return s + ":warm"
	}
	return s
}

// String summarizes the scenario.
func (sc Scenario) String() string {
	s := fmt.Sprintf("%s/%s/%s/%s", sc.Server, sc.Client, sc.Env, sc.Workload)
	if sc.MuxFIFO {
		s += "/fifo"
	}
	if sc.Proxy != nil {
		s += "/" + sc.Proxy.String()
	}
	if sc.Fault != faults.None {
		s += "/" + sc.Fault.String()
	}
	return s
}

// RunResult is the outcome of one scenario execution.
type RunResult struct {
	Scenario Scenario
	// Stats describes the client-side link: the whole path on a direct
	// run, the last mile (client ↔ proxy) on a proxy run.
	Stats  trace.Stats
	Client httpclient.Result
	Server httpserver.Stats
	// Proxy and Origin are filled on proxy runs only: proxy-tier counters
	// and the packet statistics of the proxy ↔ origin link.
	Proxy  *proxy.Stats
	Origin *trace.Stats
	// Elapsed is measured from the packet trace, first to last packet,
	// like the paper's tcpdump-based timings.
	Elapsed time.Duration
	// Capture holds the full packet trace when Scenario runs through
	// RunCaptured.
	Capture *trace.Capture
	// Timeline holds the full-stack event bus when Run was given
	// WithTimeline; nil otherwise.
	Timeline *obs.Bus
	// Latency holds the per-request latency distributions (queue time,
	// TTFB, total — nanosecond histograms) when Run was given WithStats;
	// nil otherwise.
	Latency *stats.LatencySet
	// Blame holds the causal delay attribution — per-request category
	// breakdown and page-load critical path — when Run was given
	// WithBlame; nil otherwise.
	Blame *causality.Analysis

	// served is the site the origin served: the one given to Run, or its
	// revision on a ReviseFraction run.
	served *webgen.Site
}

// ErrDidNotFinish reports a run whose client never completed the page.
var ErrDidNotFinish = errors.New("core: client did not finish the fetch")

// ErrMuxTopology reports a mux-family scenario behind the HTTP/1.x
// caching proxy, which cannot forward framed connections. It is the
// only remaining mode restriction: every fault profile now applies to
// every client mode — the server maps the HTTP/1.x scripted faults
// onto framed connections (GOAWAY for early-close, a stalled stream
// for stall, …) and the mux client carries the full recovery ladder,
// per-stream watchdogs included.
var ErrMuxTopology = errors.New("core: mux-family client modes do not speak through the HTTP/1.x proxy")

// validateMode rejects scenario combinations the protocol modes cannot
// express, with a named error so callers (and the CLI) can distinguish
// a bad spec from a failed run. Like ParseTopology's, the message
// enumerates what would have been accepted.
func validateMode(sc Scenario) error {
	if sc.Client.Framed() && sc.Proxy != nil {
		return fmt.Errorf("%w: %s (want direct, or proxy:ENV[:warm|:stale] with an HTTP/1.x or burst client mode, e.g. proxy:WAN:warm)", ErrMuxTopology, sc)
	}
	return nil
}

// serverPort is the simulated origin's port; proxyPort the caching
// proxy's (3128, squid's convention).
const (
	serverPort = 80
	proxyPort  = 3128
)

// Option configures one Run call.
type Option func(*runConfig)

type runConfig struct {
	capture  bool
	timeline bool
	stats    bool
	blame    bool
	metrics  *exp.Metrics
	flight   *telemetry.Flight
	// revision, when non-nil, is the repetition slot where a sweep keeps
	// the revised site a ReviseFraction run serves, so that the other
	// cells' runs at the same seed find it there instead of synthesizing
	// it again.
	revision *revision
	// afterDrive, when non-nil, runs right after the simulation drains.
	// Tests panic in it to exercise the flight recorder's panic dump
	// without corrupting a real simulation.
	afterDrive func()
}

// revision is one repetition's revised site, synthesized by the first
// run to need it and served by every run that shares the slot.
type revision struct {
	once sync.Once
	site *webgen.Site
	err  error
}

// WithCapture retains the full packet trace in the result.
func WithCapture() Option { return func(c *runConfig) { c.capture = true } }

// WithTimeline records the full-stack event timeline — TCP connection
// state spans, congestion-window changes, Nagle holds, RTO fires,
// retransmissions, wire serialization windows, and per-object request
// lifecycle spans — into RunResult.Timeline, for export as a Perfetto
// trace or a request waterfall. Observation does not perturb the
// simulation: a run measures identically with or without it.
func WithTimeline() Option { return func(c *runConfig) { c.timeline = true } }

// WithStats collects per-request latency distributions — queue time
// (decided-to-fetch → request written), time to first byte, and total
// time per object — into RunResult.Latency, and their p50/p90/p99/max
// quantiles into the metrics record's Dist map when WithMetrics is also
// given. Latencies derive from the same request-lifecycle spans the
// timeline records, so, like observation, statistics collection does
// not perturb the simulation: a run measures identically with or
// without it.
func WithStats() Option { return func(c *runConfig) { c.stats = true } }

// WithBlame runs the causality analyzer over the event bus: each
// request's elapsed time is attributed to exclusive delay categories
// (connection setup, RTO recovery, Nagle holds, flow-control stalls,
// congestion-window waits, server think, head-of-line queueing, wire
// time — summing exactly to elapsed), and the page-load critical path
// is reconstructed, into RunResult.Blame. The analyzer reads the run's
// bus after the drive, so, like the timeline, it does not perturb the
// run.
func WithBlame() Option { return func(c *runConfig) { c.blame = true } }

// WithMetrics fills m with the run's structured measurements: packet and
// byte counts, retransmissions and drops, connection accounting, and
// simulated CPU time for both endpoints.
func WithMetrics(m *exp.Metrics) Option {
	return func(c *runConfig) { c.metrics = m }
}

// WithFlight arms f's flight recorder on the run: the run's last bus
// events are dumped, with its packet capture, when it panics, its
// recovery watchdog fires, or it does not finish. A nil f
// leaves the run unobserved. Like the other observers it does not
// perturb the run.
func WithFlight(f *telemetry.Flight) Option {
	return func(c *runConfig) { c.flight = f }
}

// Run executes the scenario against the site and returns its measurements.
func Run(sc Scenario, site *webgen.Site, opts ...Option) (*RunResult, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return run(sc, site, cfg)
}

func run(sc Scenario, site *webgen.Site, cfg runConfig) (*RunResult, error) {
	if err := validateMode(sc); err != nil {
		return nil, err
	}
	s := sim.New()
	s.SetEventLimit(50_000_000)
	o := cfg.observers(s)
	net := tcpsim.NewNetwork(s)
	net.Obs = o.layers
	clientHost := net.AddHost("client")
	serverHost := net.AddHost("server")

	var rng *sim.Rand
	cpuJitter := 0.0
	pathOpts := netem.PathOptions{Obs: o.layers}
	if sc.Jitter {
		rng = sim.NewRand(sc.Seed | 1)
		cpuJitter = 0.10
		pathOpts.Rng = rng
		pathOpts.RTTJitterFrac = 0.03
	}
	if sc.ModemCompression {
		if sc.Env != netem.PPP {
			return nil, fmt.Errorf("core: modem compression only applies to PPP, not %v", sc.Env)
		}
		pathOpts.ModemCompression = func() netem.StreamCompressor {
			return lzw.NewModemCompressor()
		}
	}
	// A fault profile scripts deterministic server misbehaviour and/or
	// link loss from the run's seed. Fault-free runs take no Script call
	// and no extra RNG stream, so they stay byte-identical to before the
	// fault layer existed.
	var script faults.Script
	if sc.Fault != faults.None {
		script = sc.Fault.Script(sc.Seed)
	}
	// The client's Env is the last-mile link; with a proxy it terminates
	// at the proxy host and a second link continues to the origin. Link
	// faults land on whichever link reaches the origin.
	var proxyHost *tcpsim.Host
	lastOpts := pathOpts
	if sc.Fault != faults.None && sc.Proxy == nil {
		lastOpts.LossAB = script.LossC2S
		lastOpts.LossBA = script.LossS2C
	}
	path := netem.NewEnvPath(s, sc.Env, lastOpts)
	if sc.Proxy != nil {
		proxyHost = net.AddHost("proxy")
		net.ConnectHosts(clientHost, proxyHost, path)
		upOpts := pathOpts
		upOpts.ModemCompression = nil // modem framing belongs to the last mile
		if sc.Fault != faults.None {
			upOpts.LossAB = script.LossC2S
			upOpts.LossBA = script.LossS2C
		}
		upstreamPath := netem.NewEnvPath(s, sc.Proxy.Env, upOpts)
		net.ConnectHosts(proxyHost, serverHost, upstreamPath)
	} else {
		net.ConnectHosts(clientHost, serverHost, path)
	}
	capture := trace.Attach(net, o.keepCapture)
	o.capture = capture

	serverCfg := httpserver.Config{Profile: sc.Server}
	if sc.ServerOverride != nil {
		serverCfg = *sc.ServerOverride
		serverCfg.Profile = sc.Server
	}
	clientCfg := sc.Client.Config()
	if sc.ClientOverride != nil {
		clientCfg = *sc.ClientOverride
	}
	// "we turned the Nagle algorithm off in both the client and the
	// server. This was the first change to the server" — the paper's
	// measured configurations run the server with TCP_NODELAY, which
	// matters for responses whose final segment is partial. A
	// ServerOverride can re-enable Nagle for the ablation experiments.
	if sc.ServerOverride == nil {
		serverCfg.NoDelay = true
	}
	if sc.MuxFIFO {
		clientCfg.MuxFIFO = true
		serverCfg.MuxFIFO = true
	}
	serverCfg.EnableDeflate = serverCfg.EnableDeflate || clientCfg.AcceptDeflate
	serverCfg.Obs = o.layers
	clientCfg.Obs = o.bus
	if sc.Fault != faults.None {
		serverCfg.Faults = script.Server
		serverCfg.MuxFaults = script.Mux
		if clientCfg.Recovery == nil {
			pol := faults.Default()
			clientCfg.Recovery = &pol
		}
	}

	served := site
	if sc.ReviseFraction > 0 {
		if sc.Workload != httpclient.Revalidate {
			return nil, fmt.Errorf("core: ReviseFraction applies to the revalidation workload")
		}
		rev := cfg.revision
		if rev == nil {
			rev = new(revision)
		}
		rev.once.Do(func() { rev.site, rev.err = site.Revise(sc.ReviseFraction, sc.Seed+101) })
		if rev.err != nil {
			return nil, rev.err
		}
		served = rev.site
	}
	server := httpserver.New(s, serverHost, serverPort, served, serverCfg, rng, cpuJitter)

	var px *proxy.Proxy
	if sc.Proxy != nil {
		capacity := sc.Proxy.CacheBytes
		if capacity == 0 {
			capacity = 8 << 20
		}
		pcache := cache.New(capacity, func() sim.Time { return s.Now() })
		if sc.Proxy.Warm || sc.Proxy.Stale {
			// Prime "as if" an earlier client had pulled the site through:
			// store each object's canonical origin response; Stale then
			// expires it so every use revalidates.
			for _, p := range site.Paths() {
				obj, _ := site.Object(p)
				e := pcache.Store(p, httpserver.CanonicalResponse(sc.Server, obj))
				if e != nil && sc.Proxy.Stale {
					pcache.Expire(e)
				}
			}
		}
		proxyCfg := proxy.Config{Cache: pcache, Obs: o.layers}
		if sc.Fault != faults.None {
			pol := faults.Default()
			proxyCfg.Recovery = &pol
		}
		px = proxy.New(s, proxyHost, proxyPort, "server", serverPort,
			proxyCfg, rng, cpuJitter)
	}

	clientCache := httpclient.NewCache()
	if sc.Workload == httpclient.Revalidate {
		clientCache.Prime(site)
	}
	targetHost, targetPort := "server", serverPort
	if sc.Proxy != nil {
		targetHost, targetPort = "proxy", proxyPort
	}
	robot := httpclient.NewRobot(s, clientHost, targetHost, targetPort, clientCfg, clientCache, rng, cpuJitter)
	robot.ArmIndex(served.LinkIndex())

	s.Schedule(0, func() {
		robot.Start("/", sc.Workload, nil)
	})

	wall := o.drive(s, sc, cfg.afterDrive)
	finished := robot.Finished()
	blame := o.finish(sc, finished)
	if !finished {
		return nil, fmt.Errorf("%w: %s", ErrDidNotFinish, sc)
	}
	res := &RunResult{
		Scenario: sc,
		Stats:    capture.Stats("client"),
		Client:   robot.Result(),
		Server:   server.Stats(),
		Blame:    blame,
		served:   served,
	}
	if px != nil {
		res.Stats = capture.StatsBetween("client", "proxy")
		origin := capture.StatsBetween("proxy", "server")
		res.Origin = &origin
		pst := px.Stats()
		res.Proxy = &pst
	}
	res.Elapsed = res.Stats.Elapsed()
	if cfg.capture {
		res.Capture = capture
	}
	if cfg.timeline {
		res.Timeline = o.bus
	}
	if cfg.stats {
		// Per-request latencies derive from the client's lifecycle spans:
		// queue = decided-to-fetch → request handed to TCP, TTFB = request
		// written → first response byte, total = decided → complete.
		// Intermediary-originated spans (Via) and abandoned spans never
		// completed carry no client-visible latency and are skipped.
		ls := &stats.LatencySet{}
		for _, sp := range o.bus.Spans() {
			if sp.Via != "" || sp.Done == obs.NoTime || sp.Written == obs.NoTime {
				continue
			}
			ls.Observe(int64(sp.Written-sp.Queued), int64(sp.FirstByte-sp.Written), int64(sp.Done-sp.Queued))
		}
		res.Latency = ls
	}
	if m := cfg.metrics; m != nil {
		st := res.Stats
		m.Scenario = sc.String()
		m.Seed = sc.Seed
		m.Packets = st.Packets
		m.PacketsC2S = st.ClientToServer
		m.PacketsS2C = st.ServerToClient
		m.PayloadBytes = st.PayloadBytes
		m.WireBytes = st.WireBytes
		m.LinkWireBytes = path.WireBits() / 8
		m.OverheadPct = st.OverheadPct()
		m.ElapsedSeconds = res.Elapsed.Seconds()
		m.Retransmissions = st.Retransmissions
		m.RTOTimeouts = int(net.RTOTimeouts())
		m.Drops = path.Dropped()
		m.Dials = int(clientHost.Dials())
		m.SocketsUsed = res.Client.SocketsUsed
		m.MaxOpenConns = res.Client.MaxSimultaneousConns
		m.ClientCPUSeconds = robot.CPUTime().Seconds()
		m.ServerCPUSeconds = server.CPUTime().Seconds()
		m.Responses200 = res.Client.Responses200
		m.Responses304 = res.Client.Responses304
		m.Responses206 = res.Client.Responses206
		m.Errors = res.Client.Errors
		m.Retried = res.Client.Retried
		m.Timeouts = res.Client.Timeouts
		m.RequestsRecovered = res.Client.RequestsRecovered
		m.RequestsFailed = res.Client.RequestsFailed
		m.WastedBytes = res.Client.WastedBytes
		m.RecoverySeconds = res.Client.RecoverySeconds
		m.Fallbacks = res.Client.Fallbacks
		m.FaultsInjected = res.Server.FaultsInjected
		m.StreamsOpened = res.Client.StreamsOpened
		m.PushPromised = res.Client.PushPromised
		m.PushUsed = res.Client.PushUsed
		m.PushWastedBytes = res.Client.PushWastedBytes
		m.HeaderBytesSaved = res.Client.HeaderBytesSaved
		m.FlowControlStalls = res.Client.FlowControlStalls + res.Server.FlowControlStalls
		m.StreamsReset = res.Client.StreamsReset
		m.Goaways = res.Client.Goaways
		m.DeadlocksDetected = res.Client.DeadlocksDetected
		m.SimEvents = s.Stats().Fired
		if secs := wall.Seconds(); secs > 0 {
			m.SimEventsPerSec = float64(m.SimEvents) / secs
		}
		if cfg.timeline {
			m.TimelineEvents = o.bus.Len()
			m.TimelineSpans = len(o.bus.Spans())
		}
		if a := res.Blame; a != nil {
			m.BlameConnectMs = a.Total.Ms(causality.CatConnect)
			m.BlameRTOMs = a.Total.Ms(causality.CatRTO)
			m.BlameNagleMs = a.Total.Ms(causality.CatNagle)
			m.BlameFlowMs = a.Total.Ms(causality.CatFlow)
			m.BlameSlowStartMs = a.Total.Ms(causality.CatSlowStart)
			m.BlameServerMs = a.Total.Ms(causality.CatServer)
			m.BlameHOLMs = a.Total.Ms(causality.CatHOL)
			m.BlameWireMs = a.Total.Ms(causality.CatWire)
			m.CriticalPathMs = float64(a.CriticalPath) / 1e6
		}
		m.Dist = res.Latency.DistMap()
		if res.Proxy != nil {
			p := res.Proxy
			m.CacheHits = p.Hits
			m.CacheMisses = p.Misses
			m.CacheRevalidations = p.Revalidations
			if p.Requests > 0 {
				m.CacheHitRatio = float64(p.Hits) / float64(p.Requests)
			}
			m.CacheBytesSaved = p.BytesFromCache
			m.UpstreamRequests = p.UpstreamRequests
			m.OriginPackets = res.Origin.Packets
			m.OriginBytes = res.Origin.PayloadBytes
		}
	}
	return res, nil
}

// Avg is the paper's per-cell measurement — packets, payload bytes,
// elapsed seconds, and TCP/IP overhead percentage — averaged over Runs
// repeated runs.
type Avg struct {
	Runs int
	Cell
}

// DefaultRuns is the paper's repetition count.
const DefaultRuns = 5

var (
	siteOnce sync.Once
	siteVal  *webgen.Site
	siteErr  error
)

// DefaultSite returns the shared Microscape site, synthesized once per
// process.
func DefaultSite() (*webgen.Site, error) {
	siteOnce.Do(func() {
		siteVal, siteErr = webgen.Microscape(webgen.Options{Seed: 1})
	})
	return siteVal, siteErr
}
