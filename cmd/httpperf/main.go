// Command httpperf regenerates the measurements of "Network Performance
// Effects of HTTP/1.1, CSS1, and PNG" (SIGCOMM '97) on the simulated
// testbed. The experiments come from the registry populated by
// internal/experiments; independent simulation runs fan out across a
// worker pool whose aggregation is deterministic, so the tables are
// byte-identical at any -parallel level.
//
// Usage:
//
//	httpperf                 # everything
//	httpperf -table 4        # one experiment: a paper table (1, 3-11) or one of
//	                         # the named ones (modem, nagle, proxy, mux, blame, ...)
//	httpperf -list           # every registered experiment + the scenario vocabulary
//	httpperf -list-envs      # Table 1
//	httpperf -runs 5         # averaging runs per cell (default 5)
//	httpperf -seeds 2        # independent seed families per cell (default 1)
//	httpperf -parallel 8     # worker goroutines (default NumCPU)
//	httpperf -json           # machine-readable output (tables + per-run metrics)
//	httpperf -csv            # per-run metrics as CSV
//
// Statistical observability:
//
//	httpperf -table variance -seeds 8       # seed-variance experiment: mean ± 95% CI
//	                                        # and latency quantiles per cell
//	httpperf -table 4 -stats -seeds 4       # any experiment + per-cell ±CI summary table
//	httpperf -hist                          # run -scenario once, print per-request
//	                                        # latency histograms (queue/TTFB/total)
//
// -seeds widens every cell from a point to a population: that many
// independent seed families of -runs repetitions each.
//
// Observability (single-scenario mode; see -scenario for the cell):
//
//	httpperf -pcap run.pcap        # packet capture for tcpdump/Wireshark
//	httpperf -timeline run.json    # Perfetto / Chrome trace-event JSON
//	httpperf -waterfall            # devtools-style request waterfall table
//	httpperf -blame                # waterfall with per-request delay attribution
//	                               # phase columns, plus the run's totals
//	httpperf -critical-path        # page-load gating chain and its blame
//	httpperf -topology proxy:WAN   # interpose a shared caching proxy
//	httpperf -fault early-close    # inject a scripted fault profile
//
// Live telemetry (any mode; all off by default and non-perturbing —
// output stays byte-identical with these on):
//
//	httpperf -progress                      # live cells/runs/rate/ETA line on stderr
//	httpperf -telemetry out.jsonl           # JSON-lines stream: meta, periodic samples
//	                                        # (registry + memory/GC), progress, flight records
//	httpperf -telemetry-interval 250ms      # sampler period (default 500ms)
//	httpperf -flight dumps/                 # flight recorder: retain the last -flight-events
//	                                        # bus events per run; dump Perfetto JSON + pcap
//	                                        # on panic, recovery-watchdog fire, or cell error
//	httpperf -validate-telemetry out.jsonl  # check a stream against the telemetry/1 schema
//
// Profiling:
//
//	httpperf -cpuprofile cpu.pb.gz          # CPU profile of the whole invocation
//	httpperf -memprofile mem.pb.gz          # heap profile at exit
//	httpperf -mutexprofile mutex.pb.gz      # mutex-contention profile at exit
//	httpperf -profile-slowest slow.pb.gz    # after a sweep, re-run its slowest cell
//	                                        # alone under the CPU profiler
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the whole invocation so deferred telemetry and
// profile finalizers run before the process exits.
func realMain() int {
	table := flag.String("table", "all", "which table to regenerate ("+strings.Join(exp.AllNames(), ", ")+", all)")
	runs := flag.Int("runs", core.DefaultRuns, "averaging runs per cell")
	seeds := flag.Int("seeds", 1, "independent seed families per cell (multiplies -runs)")
	statsOn := flag.Bool("stats", false, "collect per-request latency distributions and append a per-cell mean ±95% CI summary table")
	hist := flag.Bool("hist", false, "run -scenario once and print its per-request latency histograms (queue/TTFB/total)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulation runs")
	list := flag.Bool("list", false, "list registered experiments and the scenario vocabulary, then exit")
	listEnvs := flag.Bool("list-envs", false, "print Table 1 (network environments) and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON (tables plus per-run metrics) instead of text tables")
	asCSV := flag.Bool("csv", false, "emit per-run metrics as CSV instead of text tables")
	scenario := flag.String("scenario", "apache/pipelined/PPP/first", "server/client/env/workload[/topology][/fault] cell for the observability flags")
	topology := flag.String("topology", "direct", "topology for the observability run: direct, or proxy:ENV[:warm|:stale]")
	fault := flag.String("fault", "", "fault profile for the observability run ("+strings.Join(faults.Names(), ", ")+")")
	seed := flag.Uint64("seed", 1, "seed for the observability single-scenario run")
	pcap := flag.String("pcap", "", "run -scenario once and write its packet capture to this pcap file")
	timeline := flag.String("timeline", "", "run -scenario once and write its event timeline to this Perfetto JSON file")
	waterfall := flag.Bool("waterfall", false, "run -scenario once and print its request waterfall table")
	blame := flag.Bool("blame", false, "run -scenario once and print its waterfall with per-request delay attribution columns, plus the run totals")
	criticalPath := flag.Bool("critical-path", false, "run -scenario once and print its page-load critical path (gating chain + blame)")
	progress := flag.Bool("progress", false, "report live sweep progress (cells, runs, rate, ETA) on stderr")
	telemetryOut := flag.String("telemetry", "", "stream live telemetry (samples, progress, flight records) to this JSON-lines file")
	telemetryInterval := flag.Duration("telemetry-interval", 500*time.Millisecond, "sampler period for -telemetry")
	flightDir := flag.String("flight", "", "arm the flight recorder: dump the last -flight-events bus events into this directory when a run panics, the recovery watchdog fires, or a cell errors")
	flightEvents := flag.Int("flight-events", telemetry.DefaultFlightEvents, "events the flight recorder retains per run")
	validateTelemetry := flag.String("validate-telemetry", "", "validate a -telemetry JSON-lines file against the telemetry/1 schema and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	profileSlowest := flag.String("profile-slowest", "", "after the sweep, re-run its slowest cell alone and write that CPU profile to this file")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "httpperf:", err)
		return 1
	}

	if *list {
		printList(os.Stdout)
		return 0
	}
	if *listEnvs {
		report.Environments(os.Stdout)
		return 0
	}
	if *validateTelemetry != "" {
		if err := validateStreamFile(*validateTelemetry, os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	// Profiling. The mutex fraction must be set before the work runs;
	// the heap and mutex profiles are written on the way out.
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	cpuStopped := false
	stopCPU := func() {
		if *cpuprofile != "" && !cpuStopped {
			cpuStopped = true
			pprof.StopCPUProfile()
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer stopCPU()
	}
	defer writeExitProfiles(*memprofile, *mutexprofile)

	// Live observers: one monitor, handed to every run below; nil when
	// no telemetry flag is set. The progress reporter feeds the stream
	// whenever one is open, and stderr only under -progress.
	var mon *telemetry.Monitor
	if *telemetryOut != "" || *flightDir != "" || *progress {
		mon = new(telemetry.Monitor)
	}
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		mon.Stream = telemetry.NewStream(f)
		sampler := telemetry.StartSampler(mon.Stream, &mon.Metrics, *telemetryInterval)
		defer func() {
			sampler.Close()
			if err := mon.Stream.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "httpperf: telemetry stream:", err)
			}
		}()
	}
	if *flightDir != "" {
		fl, err := telemetry.NewFlight(*flightDir, *flightEvents)
		if err != nil {
			return fail(err)
		}
		mon.Flight = fl
	}
	if *progress || *telemetryOut != "" {
		var human io.Writer
		if *progress {
			human = os.Stderr
		}
		mon.Progress = telemetry.NewReporter(&mon.Metrics, mon.Stream, human)
		defer mon.Progress.Close()
	}

	if *pcap != "" || *timeline != "" || *waterfall || *hist || *blame || *criticalPath {
		if err := observe(*scenario, *topology, *fault, *seed, *pcap, *timeline, *waterfall, *hist, *blame, *criticalPath, mon); err != nil {
			return fail(err)
		}
		return 0
	}
	s := &exp.Session{Runs: *runs, Seeds: *seeds, Parallel: *parallel, Stats: *statsOn, Monitor: mon}
	if *profileSlowest != "" {
		// The collector supplies the cells' wall-time measurements.
		s.Collector = exp.NewCollector()
	}
	if err := run(s, *table, *asJSON, *asCSV, *statsOn); err != nil {
		return fail(err)
	}
	if *profileSlowest != "" {
		stopCPU() // only one CPU profile can run at a time
		if err := writeSlowestProfile(*profileSlowest, s); err != nil {
			return fail(err)
		}
	}
	return 0
}

// validateStreamFile checks a JSON-lines telemetry file against the
// telemetry/1 schema and prints the per-type record counts.
func validateStreamFile(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	counts, err := telemetry.ValidateStream(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if counts[telemetry.RecordSample] == 0 {
		return fmt.Errorf("%s: no sample records (sampler never fired?)", path)
	}
	fmt.Fprintf(w, "%s: valid %s stream: %d meta, %d sample, %d progress, %d flight\n",
		path, telemetry.SchemaVersion,
		counts[telemetry.RecordMeta], counts[telemetry.RecordSample],
		counts[telemetry.RecordProgress], counts[telemetry.RecordFlight])
	return nil
}

// writeExitProfiles writes the heap and mutex profiles, when requested.
func writeExitProfiles(memprofile, mutexprofile string) {
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err == nil {
			runtime.GC() // up-to-date allocation data
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "httpperf: memprofile:", err)
		}
	}
	if mutexprofile != "" {
		f, err := os.Create(mutexprofile)
		if err == nil {
			err = pprof.Lookup("mutex").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "httpperf: mutexprofile:", err)
		}
	}
}

// slowestRun finds the sweep's slowest run by wall time (sim_events /
// events-per-second) and the scenario that repeats it exactly.
func slowestRun(s *exp.Session) (core.Scenario, exp.Metrics, error) {
	var slowest exp.Metrics
	var slowestWall float64
	found := false
	for _, rec := range s.Collector.Records() {
		if rec.SimEventsPerSec <= 0 {
			continue
		}
		wall := float64(rec.SimEvents) / rec.SimEventsPerSec
		if !found || wall > slowestWall {
			found, slowest, slowestWall = true, rec, wall
		}
	}
	if !found {
		return core.Scenario{}, slowest, fmt.Errorf("profile-slowest: the sweep collected no per-run metrics")
	}
	// Scenario strings do not round-trip through ParseScenario (the
	// paper's mode names contain slashes, and overrides are not spelled
	// out), and cells that differ only in overrides share one. So the
	// run is the repetition of that name, among the experiment's
	// declared cells, that the sweep ran at the record's seed.
	sw := core.Sweep{Runs: s.Runs, Seeds: s.Seeds}
	for _, g := range experiments.Grids(slowest.Experiment) {
		for _, row := range g.Rows {
			for _, sc := range row.Cells {
				if one := sw.Repetition(g, sc, slowest.Run); sc.String() == slowest.Scenario && one.Seed == slowest.Seed {
					return one, slowest, nil
				}
			}
		}
	}
	return core.Scenario{}, slowest, fmt.Errorf("profile-slowest: experiment %s declares no cell %q run at seed %d", slowest.Experiment, slowest.Scenario, slowest.Seed)
}

// writeSlowestProfile re-runs the sweep's slowest run alone under the
// CPU profiler and writes the profile to path.
func writeSlowestProfile(path string, s *exp.Session) error {
	sc, slowest, err := slowestRun(s)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	_, runErr := core.Run(sc, s.Site)
	pprof.StopCPUProfile()
	if runErr != nil {
		return fmt.Errorf("profile-slowest: re-running %s: %w", slowest.Scenario, runErr)
	}
	fmt.Fprintf(os.Stderr, "httpperf: wrote %s (slowest cell %s seed %d, ~%.0fms wall)\n",
		path, slowest.Scenario, slowest.Seed, float64(slowest.SimEvents)/slowest.SimEventsPerSec*1000)
	return nil
}

// printList enumerates the registered experiments and the scenario
// vocabulary the -scenario and -topology flags accept.
func printList(w io.Writer) {
	fmt.Fprintln(w, "Experiments (-table):")
	for _, name := range exp.AllNames() {
		e, _ := exp.Lookup(name)
		fmt.Fprintf(w, "  %-8s %s\n", name, e.Title)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Scenario spec (-scenario): server/client/env/workload[/topology][/fault]")
	fmt.Fprintln(w, "  server:   jigsaw, apache")
	fmt.Fprintln(w, "  client:   http10, serial, pipelined, deflate, netscape, msie, mux, mux-push, burst")
	fmt.Fprintln(w, "  env:      LAN, WAN, PPP")
	fmt.Fprintln(w, "  workload: first, reval")
	fmt.Fprintln(w, "  topology: direct, proxy:ENV[:warm|:stale]   (also the -topology flag)")
	fmt.Fprintln(w, "            e.g. proxy:WAN:warm = shared cache at the ISP, primed and fresh")
	fmt.Fprintf(w, "  fault:    %s   (also the -fault flag)\n", strings.Join(faults.Names(), ", "))
	fmt.Fprintln(w, "            e.g. early-close = server drops the connection after 5 responses")
}

// observe runs one scenario with full observability and writes the
// requested exports.
func observe(spec, topology, fault string, seed uint64, pcap, timeline string, waterfall, hist, blame, criticalPath bool, mon *telemetry.Monitor) error {
	sc, err := core.ParseScenario(spec)
	if err != nil {
		return err
	}
	if topology != "" && topology != "direct" {
		if sc.Proxy, err = core.ParseTopology(topology); err != nil {
			return err
		}
	}
	if fault != "" {
		if sc.Fault, err = faults.Parse(fault); err != nil {
			return err
		}
	}
	sc.Seed = seed
	site, err := core.DefaultSite()
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithCapture(), core.WithTimeline(), core.WithMonitor(mon)}
	if hist {
		opts = append(opts, core.WithStats())
	}
	if blame || criticalPath {
		opts = append(opts, core.WithBlame())
	}
	res, err := core.Run(sc, site, opts...)
	if err != nil {
		return err
	}
	if pcap != "" {
		f, err := os.Create(pcap)
		if err != nil {
			return err
		}
		if err := res.Capture.WritePcap(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "httpperf: wrote %s (%d packets)\n", pcap, res.Stats.Packets)
	}
	if timeline != "" {
		f, err := os.Create(timeline)
		if err != nil {
			return err
		}
		// With an attribution run, the export carries the critical path
		// as a highlighted track.
		if err := res.Timeline.WritePerfettoPath(f, res.Blame.PerfettoPath()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "httpperf: wrote %s (%d events, %d spans)\n",
			timeline, res.Timeline.Len(), len(res.Timeline.Spans()))
	}
	if waterfall || blame {
		report.WriteWaterfall(os.Stdout, res.Timeline, res.Blame)
	}
	if blame {
		report.BlameSummary(os.Stdout, res.Blame)
	}
	if criticalPath {
		if blame {
			fmt.Println()
		}
		report.CriticalPath(os.Stdout, res.Blame)
	}
	if hist {
		fmt.Printf("%s  (%d requests)\n\n", sc, res.Latency.Count())
		res.Latency.Fprint(os.Stdout)
	}
	return nil
}

func run(s *exp.Session, table string, asJSON, asCSV, statsOn bool) error {
	site, err := core.DefaultSite()
	if err != nil {
		return err
	}
	s.Site = site

	names := exp.Names()
	if table != "all" {
		if _, ok := exp.Lookup(table); !ok {
			return fmt.Errorf("unknown table %q (known: %v)", table, exp.AllNames())
		}
		names = []string{table}
	}
	var reporter *telemetry.Reporter
	if s.Monitor != nil {
		reporter = s.Monitor.Progress
	}
	expDone := func(name string) {
		if reporter != nil {
			reporter.ExperimentDone(name)
		}
	}
	if reporter != nil {
		reporter.SetTotalExperiments(len(names))
	}

	if asJSON || asCSV {
		if s.Collector == nil {
			s.Collector = exp.NewCollector()
		}
		results := make(map[string]any, len(names)+1)
		for _, name := range names {
			data, err := s.Generate(name)
			if err != nil {
				return fmt.Errorf("table %s: %w", name, err)
			}
			if data != nil {
				results[name] = data
			}
			expDone(name)
		}
		if asCSV {
			return s.Collector.WriteCSV(os.Stdout)
		}
		results["runs"] = s.Collector.Records()
		if statsOn {
			results["cells"] = s.Collector.Cells()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}

	if statsOn && s.Collector == nil {
		s.Collector = exp.NewCollector()
	}
	for _, name := range names {
		e, _ := exp.Lookup(name)
		data, err := e.Generate(s)
		if err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		if err := e.Render(os.Stdout, s, data); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		fmt.Println()
		expDone(name)
	}
	if statsOn {
		report.Cells(os.Stdout, s.Collector.Cells())
		fmt.Println()
	}
	return nil
}
