package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/webgen"
)

// fingerprint identifies one op's simulated outcome. Two commits that
// produce the same fingerprints for the same seed simulate the same
// thing; only host time may differ between them.
//
// A scenario op's is {packets, payload bytes, simulated elapsed ns, sim
// events}; a substrate item's is {packets, bytes received, simulated ns,
// sim events}; a table_all op's is {rendered bytes, CRC-32 of the
// rendering, 0, 0}.
type fingerprint [4]uint64

// counts are the deterministic per-layer counts of one op, or their sum
// over ops, indexed by the c* constants.
type counts [nCounts]uint64

const (
	cEvents = iota
	cPackets
	cRetransmits
	cRTOTimeouts
	cDrops
	cAnswered
	cRetried
	cTimeouts
	cFallbacks
	cRequestsFailed
	cFaultsInjected
	cUpstreamRequests
	cCacheHits
	cCacheLookups
	cStreams
	cHeaderBytesSaved
	cFlowStalls
	cStreamsReset
	nCounts
)

// countMetrics names the per-op metric each count is reported as; the
// two cache counts are reported as their ratio instead.
var countMetrics = [nCounts]string{
	cEvents:           "sim.events_per_op",
	cPackets:          "tcpsim.packets_per_op",
	cRetransmits:      "tcpsim.retransmits_per_op",
	cRTOTimeouts:      "tcpsim.rto_timeouts_per_op",
	cDrops:            "netem.drops_per_op",
	cAnswered:         "httpclient.requests_per_op",
	cRetried:          "httpclient.retried_per_op",
	cTimeouts:         "httpclient.timeouts_per_op",
	cFallbacks:        "httpclient.fallbacks_per_op",
	cRequestsFailed:   "httpclient.requests_failed_per_op",
	cFaultsInjected:   "httpserver.faults_injected_per_op",
	cUpstreamRequests: "proxy.upstream_requests_per_op",
	cStreams:          "mux.streams_per_op",
	cHeaderBytesSaved: "mux.header_bytes_saved_per_op",
	cFlowStalls:       "mux.flow_stalls_per_op",
	cStreamsReset:     "mux.streams_reset_per_op",
}

// addMetrics adds the counts of one simulation run from the record
// core.Run fills. Requests are counted as answered (200, 304 and 206
// responses), which is what the record carries.
func (c *counts) addMetrics(m *exp.Metrics) {
	c[cEvents] += m.SimEvents
	c[cPackets] += uint64(m.Packets + m.OriginPackets)
	c[cRetransmits] += uint64(m.Retransmissions)
	c[cRTOTimeouts] += uint64(m.RTOTimeouts)
	c[cDrops] += uint64(m.Drops)
	c[cAnswered] += uint64(m.Responses200 + m.Responses304 + m.Responses206)
	c[cRetried] += uint64(m.Retried)
	c[cTimeouts] += uint64(m.Timeouts)
	c[cFallbacks] += uint64(m.Fallbacks)
	c[cRequestsFailed] += uint64(m.RequestsFailed)
	c[cFaultsInjected] += uint64(m.FaultsInjected)
	c[cUpstreamRequests] += uint64(m.UpstreamRequests)
	c[cCacheHits] += uint64(m.CacheHits)
	c[cCacheLookups] += uint64(m.CacheHits + m.CacheMisses + m.CacheRevalidations)
	c[cStreams] += uint64(m.StreamsOpened)
	c[cHeaderBytesSaved] += uint64(m.HeaderBytesSaved)
	c[cFlowStalls] += uint64(m.FlowControlStalls)
	c[cStreamsReset] += uint64(m.StreamsReset)
}

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// opResult is what one op reports back to the measuring loop.
type opResult struct {
	fp     fingerprint
	counts counts
	failed string // why the op failed its output check; "" when it passed
}

// op is the unit ops_per_s counts: one call into the system under test
// with a seed, followed by its output check.
type op struct {
	name string
	// blocks name the core.run_p50_us.<block> groups this op's time is
	// reported under.
	blocks []string
	run    func(seed uint64, idx int, rec *recorder) opResult
}

// workload is a fixed ordered op list; one pass over it is a round.
type workload struct {
	name string
	ops  []op
	// warmup runs before timing and is part of setup_s: one untimed
	// round, or for table_all the four golden-checked experiments.
	// It returns how many checks it made and which failed.
	warmup func(seed uint64) (attempted int, failures []string)
	// pinnedSeeds marks a workload that ignores the bench seed, so every
	// round repeats round 0 and is checked against it.
	pinnedSeeds bool
	// layerMetrics, when set, adds the per-layer metrics only this
	// workload can report (table_all's fidelity) to a traced run's.
	layerMetrics func(into map[string]float64)
}

// warmupRound is the warm-up of a workload whose ops take seeds: one
// untimed pass over the op list.
func (w *workload) warmupRound(seed uint64) (int, []string) {
	var failures []string
	for i, o := range w.ops {
		if r := o.run(opSeed(seed, warmupRoundIndex, i), i, nil); r.failed != "" {
			failures = append(failures, o.name+": "+r.failed)
		}
	}
	return len(w.ops), failures
}

// buildOptions size a workload.
type buildOptions struct {
	// counting attaches a metrics collector to table_all's sessions, for
	// the traced run's per-layer counts; the other workloads always count.
	counting bool
	// quick shrinks table_all to a few experiments at one run per cell,
	// for tests.
	quick bool
}

type workloadSpec struct {
	name, why string
	// procs is the GOMAXPROCS the workload runs under: 1 for the five
	// whose single load-generating goroutine is all there is to run, 2
	// for table_all and its pool of two.
	procs int
	build func(site *webgen.Site, o buildOptions) (*workload, error)
}

// gridSpec declares a workload that is a grid of scenario cells.
func gridSpec(name, why string, cells func() []cell, run scenarioRunner) workloadSpec {
	return workloadSpec{name, why, 1, func(site *webgen.Site, _ buildOptions) (*workload, error) {
		return scenarioWorkload(name, cells(), site, run)
	}}
}

// The six workloads. Each why says which layers do the work, so a
// change to one layer has a workload that exercises it and one that
// bypasses it.
var workloadSpecs = []workloadSpec{
	gridSpec("h1_grid", "uncompressed rows of Tables 4-9, 36 cells: HTTP/1.x parse, robot, server and GC do the work; flatez, mux and obs do none",
		h1Cells, runPlain),
	gridSpec("deflate_grid", "compression rows of Tables 4-9, 12 cells: same path plus flatez, which dominates; kept apart so it neither hides h1_grid gains nor is hidden",
		deflateCells, runPlain),
	gridSpec("framed_fault_grid", "mux, push, burst, fault-recovery and proxy cells, 104 in all: the only workload where mux, faults, proxy, cache and netem loss models run",
		framedFaultCells, runPlain),
	gridSpec("observed_explain", "12 cells run with capture, timeline, stats and blame armed, then every exporter: the observed path of core.Run, which unobserved gains must not tax",
		observedCells, runObserved),
	{"substrate", "sim, netem and tcpsim alone, no HTTP: bulk, lossy, tinygram, churn and timer-storm items; application-layer changes must not move it",
		1, func(*webgen.Site, buildOptions) (*workload, error) { return substrateWorkload(), nil }},
	{"table_all", "what httpperf -table all does, 26 experiments at 5 runs on a pool of 2: the user's command, and the only place exp, report and the content codecs run",
		2, tableAllWorkload},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// cell is one scenario of a grid workload.
type cell struct {
	spec   string
	blocks []string
}

func h1Cells() []cell {
	var out []cell
	for _, srv := range []string{"jigsaw", "apache"} {
		for _, mode := range []string{"http10", "serial", "pipelined"} {
			for _, env := range []string{"LAN", "WAN", "PPP"} {
				for _, wl := range []string{"first", "reval"} {
					out = append(out, cell{fmt.Sprintf("%s/%s/%s/%s", srv, mode, env, wl), []string{mode, wl}})
				}
			}
		}
	}
	return out
}

func deflateCells() []cell {
	var out []cell
	for _, srv := range []string{"jigsaw", "apache"} {
		for _, env := range []string{"LAN", "WAN", "PPP"} {
			for _, wl := range []string{"first", "reval"} {
				out = append(out, cell{fmt.Sprintf("%s/deflate/%s/%s", srv, env, wl), []string{"deflate"}})
			}
		}
	}
	return out
}

func framedFaultCells() []cell {
	var out []cell
	envs := []string{"WAN", "PPP"}
	for _, srv := range []string{"jigsaw", "apache"} {
		for _, mode := range []string{"mux", "mux-push", "burst"} {
			for _, env := range envs {
				for _, wl := range []string{"first", "reval"} {
					out = append(out, cell{fmt.Sprintf("%s/%s/%s/%s", srv, mode, env, wl), []string{"mux_clean"}})
				}
			}
		}
	}
	for _, mode := range []string{"http10", "serial", "pipelined"} {
		for _, env := range envs {
			for _, f := range []string{"early-close", "truncate", "abort", "stall", "burst-loss", "flap", "blackhole"} {
				out = append(out, cell{fmt.Sprintf("apache/%s/%s/first/%s", mode, env, f), []string{"h1_faults"}})
			}
		}
	}
	for _, mode := range []string{"mux", "mux-push"} {
		for _, env := range envs {
			for _, f := range []string{"mux-rst", "mux-truncate", "mux-garbage", "mux-push-abort", "mux-stall"} {
				out = append(out, cell{fmt.Sprintf("apache/%s/%s/first/%s", mode, env, f), []string{"mux_faults"}})
			}
		}
	}
	for _, mode := range []string{"serial", "pipelined", "burst"} {
		for _, wl := range []string{"first", "reval"} {
			for _, topo := range []string{"proxy:WAN", "proxy:WAN:warm", "proxy:WAN:stale"} {
				out = append(out, cell{fmt.Sprintf("apache/%s/PPP/%s/%s", mode, wl, topo), []string{"proxy"}})
			}
		}
	}
	return out
}

func observedCells() []cell {
	var out []cell
	for _, mode := range []string{"http10", "pipelined", "mux"} {
		for _, env := range []string{"WAN", "PPP"} {
			for _, wl := range []string{"first", "reval"} {
				out = append(out, cell{fmt.Sprintf("apache/%s/%s/%s", mode, env, wl), nil})
			}
		}
	}
	return out
}

// scenarioRunner executes one parsed scenario as an op.
type scenarioRunner func(sc core.Scenario, site *webgen.Site, idx int, rec *recorder) opResult

func scenarioWorkload(name string, cells []cell, site *webgen.Site, run scenarioRunner) (*workload, error) {
	w := &workload{name: name}
	for _, c := range cells {
		sc, err := core.ParseScenario(c.spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sc.Jitter = true
		w.ops = append(w.ops, op{name: c.spec, blocks: c.blocks,
			run: func(seed uint64, idx int, rec *recorder) opResult {
				sc := sc
				sc.Seed = seed
				return run(sc, site, idx, rec)
			}})
	}
	w.warmup = w.warmupRound
	return w, nil
}

// checkRun is the per-op output check of a scenario: the run returned,
// the client finished the page, and a cell with no fault injected saw
// no connection error and lost no request.
func checkRun(sc core.Scenario, res *core.RunResult, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case !res.Client.Done:
		return "client not done"
	case sc.Fault == faults.None && res.Client.Errors > 0:
		return fmt.Sprintf("%d connection errors on an unfaulted cell", res.Client.Errors)
	case sc.Fault == faults.None && res.Client.RequestsFailed > 0:
		return fmt.Sprintf("%d failed requests on an unfaulted cell", res.Client.RequestsFailed)
	}
	return ""
}

func resultOf(sc core.Scenario, res *core.RunResult, m *exp.Metrics, err error) opResult {
	r := opResult{failed: checkRun(sc, res, err)}
	if err != nil {
		return r
	}
	r.fp = fingerprint{uint64(m.Packets), uint64(m.PayloadBytes), uint64(res.Elapsed), m.SimEvents}
	r.counts.addMetrics(m)
	return r
}

// runPlain is the unobserved op: one core.Run with metrics only.
func runPlain(sc core.Scenario, site *webgen.Site, idx int, rec *recorder) opResult {
	var m exp.Metrics
	var res *core.RunResult
	var err error
	rec.time("core.Run", idx, func() { res, err = core.Run(sc, site, core.WithMetrics(&m)) })
	return resultOf(sc, res, &m, err)
}

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// runObserved is the observed op: core.Run with every observer armed,
// then each export httpperf's single-scenario flags perform, to a
// discarding writer.
func runObserved(sc core.Scenario, site *webgen.Site, idx int, rec *recorder) opResult {
	var m exp.Metrics
	var res *core.RunResult
	var err error
	d := rec.time("core.Run observed", idx, func() {
		res, err = core.Run(sc, site, core.WithMetrics(&m),
			core.WithCapture(), core.WithTimeline(), core.WithStats(), core.WithBlame())
	})
	r := resultOf(sc, res, &m, err)
	if err != nil {
		return r
	}
	rec.observe("core.run_observed_us", us(d))
	var pcap, perfetto countWriter
	var werr error
	export := func(key, name string, fn func()) {
		rec.observe(key, us(rec.time(name, idx, fn)))
	}
	export("trace.write_pcap_us", "trace.WritePcap", func() { werr = res.Capture.WritePcap(&pcap) })
	if werr == nil {
		export("obs.write_perfetto_us", "obs.WritePerfettoPath", func() {
			werr = res.Timeline.WritePerfettoPath(&perfetto, res.Blame.PerfettoPath())
		})
	}
	export("report.waterfall_us", "report.WriteWaterfall", func() { report.WriteWaterfall(io.Discard, res.Timeline, res.Blame) })
	export("report.blame_summary_us", "report.BlameSummary", func() { report.BlameSummary(io.Discard, res.Blame) })
	export("report.critical_path_us", "report.CriticalPath", func() { report.CriticalPath(io.Discard, res.Blame) })
	export("stats.latency_fprint_us", "stats.LatencySet.Fprint", func() { res.Latency.Fprint(io.Discard) })
	if werr != nil && r.failed == "" {
		r.failed = "export: " + werr.Error()
	}
	rec.observe("obs.events_per_op", float64(res.Timeline.Len()))
	rec.observe("obs.spans_per_op", float64(len(res.Timeline.Spans())))
	rec.observe("trace.pcap_bytes_per_op", float64(pcap.n))
	rec.observe("obs.perfetto_bytes_per_op", float64(perfetto.n))
	return r
}
