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
//	httpperf -list           # every registered experiment + the scenario grammar
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
//
// -seeds widens every cell from a point to a population: that many
// independent seed families of -runs repetitions each.
//
// Explaining one run (the spec grammar is printed by -list):
//
//	httpperf -explain apache/pipelined/PPP/first           # report on stdout
//	httpperf -explain apache/pipelined/WAN/first/proxy:WAN/early-close -seed 7 -o out
//
// The report is the run's packet summary, its request waterfall with
// per-request delay attribution, the attribution totals, the page-load
// critical path and the per-request latency histograms (queue/TTFB/
// total). -o DIR also writes run.pcap (tcpdump/Wireshark), run.json
// (Perfetto, with a critical-path track), dump.txt (tcpdump-style
// packet dump), client.xplot and server.xplot (xplot(1) input),
// client.seq and server.seq (time-sequence points) and report.txt.
//
// Flight recorder (any mode; off by default and non-perturbing — output
// stays byte-identical with it on):
//
//	httpperf -flight dumps/                 # retain each run's last 4096 bus events; on a
//	                                        # panic, recovery-watchdog fire or unfinished run,
//	                                        # dump Perfetto JSON + pcap and announce the dump
//	                                        # on a line of dumps/index.txt
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain carries the whole invocation so deferred profile finalizers
// run before the process exits.
func realMain(args []string) int {
	fs := flag.NewFlagSet("httpperf", flag.ContinueOnError)
	table := fs.String("table", "all", "which table to regenerate ("+strings.Join(exp.AllNames(), ", ")+", all)")
	runs := fs.Int("runs", core.DefaultRuns, "averaging runs per cell")
	seeds := fs.Int("seeds", 1, "independent seed families per cell (multiplies -runs)")
	statsOn := fs.Bool("stats", false, "collect per-request latency distributions and append a per-cell mean ±95% CI summary table")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulation runs")
	list := fs.Bool("list", false, "list registered experiments and the scenario grammar, then exit")
	asJSON := fs.Bool("json", false, "emit results as JSON (tables plus per-run metrics) instead of text tables")
	asCSV := fs.Bool("csv", false, "emit per-run metrics as CSV instead of text tables")
	explainSpec := fs.String("explain", "", "run this scenario (see -list) once with every observer armed and print its report")
	seed := fs.Uint64("seed", 1, "seed for the -explain run")
	outDir := fs.String("o", "", "with -explain, also write the run's artifacts (pcap, Perfetto JSON, dump, xplot, time-sequence, report) into this directory")
	flightDir := fs.String("flight", "", "arm the flight recorder: dump each run's last bus events into this directory, indexed in index.txt, when a run panics, the recovery watchdog fires, or a run does not finish")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	mutexprofile := fs.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	profileSlowest := fs.String("profile-slowest", "", "after the sweep, re-run its slowest cell alone and write that CPU profile to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "httpperf:", err)
		return 1
	}

	if *list {
		printList(os.Stdout)
		return 0
	}
	if *outDir != "" && *explainSpec == "" {
		return fail(errors.New("-o needs -explain SPEC"))
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

	// The flight recorder, handed to every run below; nil without -flight.
	var flight *telemetry.Flight
	if *flightDir != "" {
		var err error
		if flight, err = telemetry.NewFlight(*flightDir); err != nil {
			return fail(err)
		}
	}

	if *explainSpec != "" {
		if err := explain(*explainSpec, *seed, *outDir, flight, os.Stdout, os.Stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	s := &exp.Session{Runs: *runs, Seeds: *seeds, Parallel: *parallel, Stats: *statsOn, Flight: flight}
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
// grammar -explain accepts (core.ParseScenario's).
func printList(w io.Writer) {
	fmt.Fprintln(w, "Experiments (-table):")
	for _, name := range exp.AllNames() {
		e, _ := exp.Lookup(name)
		fmt.Fprintf(w, "  %-8s %s\n", name, e.Title)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Scenario spec (-explain): server/client/env/workload[/fifo][/nagle][/topology][/fault]")
	fmt.Fprintln(w, "  server:   jigsaw, apache")
	fmt.Fprintln(w, "  client:   http10, serial, pipelined, deflate, netscape, msie, mux, mux-push, burst")
	fmt.Fprintln(w, "  env:      LAN, WAN, PPP")
	fmt.Fprintln(w, "  workload: first, reval")
	fmt.Fprintln(w, "  fifo:     mux modes only: first-come-first-served stream scheduling")
	fmt.Fprintln(w, "            e.g. apache/mux/PPP/first/fifo")
	fmt.Fprintln(w, "  nagle:    leave the server's Nagle algorithm on (the paper's untuned server)")
	fmt.Fprintln(w, "            e.g. jigsaw/serial/WAN/first/nagle")
	fmt.Fprintln(w, "  topology: direct, proxy:ENV[:warm|:stale]")
	fmt.Fprintln(w, "            e.g. apache/pipelined/PPP/first/proxy:WAN:warm = shared cache at the ISP, primed and fresh")
	fmt.Fprintf(w, "  fault:    %s\n", strings.Join(faults.Names(), ", "))
	fmt.Fprintln(w, "            e.g. apache/pipelined/WAN/first/early-close = server drops the connection after 5 responses")
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
	}
	if statsOn {
		report.Cells(os.Stdout, s.Collector.Cells())
		fmt.Println()
	}
	return nil
}
