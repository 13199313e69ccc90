package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/webgen"
)

// tableAllSession is a session like the one httpperf builds from its
// flags: runs per cell, one seed family, a pool parallel wide.
func tableAllSession(site *webgen.Site, runs, parallel int) *exp.Session {
	return &exp.Session{Site: site, Runs: runs, Seeds: 1, Parallel: parallel}
}

// experimentRun is one experiment generated and rendered.
type experimentRun struct {
	res              opResult
	data             any
	generate, render time.Duration
}

// runExperiment generates and renders one registered experiment. The
// fingerprint is the rendered table itself (length and CRC-32), so drift
// in any printed number shows.
func runExperiment(name string, s *exp.Session, idx int, rec *recorder) experimentRun {
	var x experimentRun
	e, ok := exp.Lookup(name)
	if !ok {
		x.res.failed = "experiment not registered"
		return x
	}
	var err error
	x.generate = rec.time("exp.Generate "+name, idx, func() { x.data, err = e.Generate(s) })
	if err != nil {
		x.res.failed = err.Error()
		return x
	}
	h := crc32.NewIEEE()
	var n countWriter
	x.render = rec.time("exp.Render "+name, idx, func() { err = e.Render(io.MultiWriter(h, &n), s, x.data) })
	if err != nil {
		x.res.failed = err.Error()
		return x
	}
	x.res.fp = fingerprint{uint64(n.n), uint64(h.Sum32())}
	return x
}

// tableAllWorkload is what httpperf -table all does by default on a
// two-core host: every registered experiment at five runs per cell on a
// pool of two. Seeds are the experiments' own pinned schedules — this is
// the CLI path — so the bench seed does not alter it.
func tableAllWorkload(site *webgen.Site, o buildOptions) (*workload, error) {
	tables := map[int]core.Table{} // the latest Tables 4-11, for the fidelity metrics
	w := &workload{name: "table_all", pinnedSeeds: true,
		layerMetrics: func(into map[string]float64) { fidelityOf(tables, into) }}
	names, runs := exp.Names(), core.DefaultRuns
	if o.quick {
		names, runs = names[:3], 1
	}
	for _, name := range names {
		w.ops = append(w.ops, op{name: name, run: func(_ uint64, idx int, rec *recorder) opResult {
			s := tableAllSession(site, runs, 2)
			if o.counting {
				s.Collector = exp.NewCollector()
			}
			x := runExperiment(name, s, idx, rec)
			if t, ok := x.data.(core.Table); ok && t.Number > 0 {
				tables[t.Number] = t
			}
			if o.counting {
				for _, m := range s.Collector.Records() {
					x.res.counts.addMetrics(&m)
				}
			}
			return x.res
		}})
	}
	w.warmup = func(uint64) (int, []string) {
		var failures []string
		for _, g := range goldenTables {
			if why := checkGolden(site, g.name, g.file); why != "" {
				failures = append(failures, "golden "+g.name+": "+why)
			}
		}
		return len(goldenTables), failures
	}
	return w, nil
}

// goldenTables are the experiments whose rendering at one run per cell
// is pinned byte-for-byte under cmd/httpperf/testdata. The bench only
// reads those files: a model change updates them there, never here.
var goldenTables = []struct{ name, file string }{
	{"mux", "mux_golden.txt"},
	{"faults", "faults_golden.txt"},
	{"mux-faults", "muxfaults_golden.txt"},
	{"blame", "blame_golden.txt"},
}

// repoRoot finds the repository root — the directory holding
// BENCHMARK.json — from the working directory, which is bench/ under
// both go run -C bench and go test.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// checkGolden renders one experiment the way the golden was made (one
// run per cell, then the blank line httpperf prints after a table) and
// returns why it differs from the committed file, or "".
func checkGolden(site *webgen.Site, name, file string) string {
	root, err := repoRoot()
	if err != nil {
		return err.Error()
	}
	want, err := os.ReadFile(filepath.Join(root, "cmd", "httpperf", "testdata", file))
	if err != nil {
		return err.Error()
	}
	e, ok := exp.Lookup(name)
	if !ok {
		return "experiment not registered"
	}
	s := tableAllSession(site, 1, 2)
	data, err := e.Generate(s)
	if err != nil {
		return err.Error()
	}
	var got bytes.Buffer
	if err := e.Render(&got, s, data); err != nil {
		return err.Error()
	}
	got.WriteByte('\n')
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Sprintf("rendering differs from %s", file)
	}
	return ""
}

// fidelityOf compares Tables 4-11 as generated with the paper's
// published cells (core.PaperTables): the mean relative error of
// seconds, packets and bytes over every cell, and the number of row
// pairs, per table and column, that the paper orders by seconds and we
// order the other way. All four are deterministic.
func fidelityOf(tables map[int]core.Table, into map[string]float64) {
	var secErr, paErr, bytesErr float64
	cells, inversions := 0, 0
	for number := 4; number <= 11; number++ { // in order: float sums must repeat exactly
		paper := core.PaperTables[number]
		ours := map[string]core.Row{}
		for _, r := range tables[number].Rows {
			ours[r.Label] = r
		}
		type pair struct{ ours, paper float64 }
		var first, reval []pair
		for _, pr := range paper {
			r, ok := ours[pr.Label]
			if !ok {
				continue
			}
			for _, c := range []struct {
				o core.Cell
				p core.PaperCell
			}{{r.First, pr.First}, {r.Reval, pr.Reval}} {
				secErr += math.Abs(c.o.Seconds-c.p.Seconds) / c.p.Seconds
				paErr += math.Abs(c.o.Packets-c.p.Packets) / c.p.Packets
				bytesErr += math.Abs(c.o.Bytes-c.p.Bytes) / c.p.Bytes
				cells++
			}
			first = append(first, pair{r.First.Seconds, pr.First.Seconds})
			reval = append(reval, pair{r.Reval.Seconds, pr.Reval.Seconds})
		}
		for _, col := range [][]pair{first, reval} {
			for i := range col {
				for j := i + 1; j < len(col); j++ {
					if col[i].paper != col[j].paper && (col[i].ours < col[j].ours) != (col[i].paper < col[j].paper) {
						inversions++
					}
				}
			}
		}
	}
	if cells == 0 {
		return
	}
	into["core.fidelity_sec_err_pct"] = 100 * secErr / float64(cells)
	into["core.fidelity_pa_err_pct"] = 100 * paErr / float64(cells)
	into["core.fidelity_bytes_err_pct"] = 100 * bytesErr / float64(cells)
	into["core.fidelity_rank_inversions"] = float64(inversions)
}
