package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// suiteConfig selects a run of every workload.
type suiteConfig struct {
	seed    uint64
	seconds float64
	reps    int
	// aa runs two sets of the same build side by side, alternating which
	// goes first, and compares them: the benchmark's own noise check.
	aa  bool
	out string
}

// envStamp records where and on what a result file was measured, so a
// comparison can say when the two sides are not comparable.
type envStamp struct {
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	CPU       string `json:"cpu,omitempty"`
	GitRev    string `json:"git_rev,omitempty"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
	Date      string `json:"date"`
}

func stampEnv() envStamp {
	e := envStamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Date: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				e.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	// Outside a git checkout both commands fail and the fields stay empty.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return e
}

// repValues is one end-to-end metric over a workload's reps.
type repValues struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Reps   []float64 `json:"reps"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name         string               `json:"name"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	OpsPerRound  int                  `json:"ops_per_round"`
	Rounds       []int                `json:"rounds"` // timed rounds, per rep
	Fingerprint  string               `json:"sim_fingerprint"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FailedOpsPct float64              `json:"failed_ops_pct"`
	EndToEnd     map[string]repValues `json:"end_to_end"`
	PerLayer     map[string]metric    `json:"per_layer,omitempty"`
	TraceFile    string               `json:"trace_file,omitempty"`
}

// suiteResult is a result file.
type suiteResult struct {
	Env       envStamp         `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Reps      int              `json:"reps"`
	Workloads []workloadResult `json:"workloads"`
}

// child runs one workload once in a fresh process of this binary and
// parses the two lines it prints. A child that ran but failed ops exits
// 1 and still prints; anything else is an error.
func child(workload string, seed uint64, seconds float64, trace bool) (result, runInfo, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, runInfo{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return result{}, runInfo{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return result{}, runInfo{}, fmt.Errorf("%s: child printed no result", workload)
	}
	var res result
	var wrapped struct {
		Info runInfo `json:"info"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, runInfo{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &wrapped); err != nil {
		return result{}, runInfo{}, fmt.Errorf("%s: info line: %w", workload, err)
	}
	return res, wrapped.Info, nil
}

// runSuite runs every workload reps times untraced, each run in a fresh
// process, interleaved across workloads (A B C D E F, A B ...) so that
// host drift spreads over all of them; then one traced run per
// workload. In aa mode it runs two such sets interleaved instead,
// without traced runs, and compares them. It reports whether any op
// failed (or, in aa mode, any metric regressed).
func runSuite(cfg suiteConfig) (bool, error) {
	sets := 1
	if cfg.aa {
		sets = 2
	}
	results := make([]suiteResult, sets)
	for s := range results {
		results[s] = suiteResult{Env: stampEnv(), Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps}
		for _, spec := range workloadSpecs {
			results[s].Workloads = append(results[s].Workloads,
				workloadResult{Name: spec.name, EndToEnd: map[string]repValues{}})
		}
	}
	for rep := 0; rep < cfg.reps; rep++ {
		for wi, spec := range workloadSpecs {
			for k := 0; k < sets; k++ {
				s := (k + rep + wi) % sets // alternate which set goes first
				fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d%s\n", spec.name, rep+1, cfg.reps, setLabel(sets, s))
				res, info, err := child(spec.name, cfg.seed, cfg.seconds, false)
				if err != nil {
					return false, err
				}
				w := &results[s].Workloads[wi]
				w.GOMAXPROCS, w.OpsPerRound, w.Fingerprint = info.GOMAXPROCS, info.OpsPerRound, info.Fingerprint
				w.Rounds = append(w.Rounds, info.Rounds)
				w.Attempted += res.Attempted
				w.Failed += res.Failed
				for name, m := range res.Metrics {
					v := w.EndToEnd[name]
					v.Unit = m.Unit
					v.Reps = append(v.Reps, m.Value)
					w.EndToEnd[name] = v
				}
			}
		}
	}
	for wi, spec := range workloadSpecs {
		if cfg.aa {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s traced\n", spec.name)
		res, info, err := child(spec.name, cfg.seed, cfg.seconds, true)
		if err != nil {
			return false, err
		}
		w := &results[0].Workloads[wi]
		w.Attempted += res.Attempted
		w.Failed += res.Failed
		w.PerLayer, w.TraceFile = res.Metrics, info.TraceFile
	}

	failed := false
	for s := range results {
		for wi := range results[s].Workloads {
			w := &results[s].Workloads[wi]
			w.FailedOpsPct = 100 * float64(w.Failed) / float64(w.Attempted)
			failed = failed || w.Failed > 0
			for name, v := range w.EndToEnd {
				v.Median, v.Min, v.Max = median(v.Reps), quantile(v.Reps, 0), quantile(v.Reps, 1)
				w.EndToEnd[name] = v
			}
		}
	}
	paths := []string{cfg.out}
	if cfg.aa {
		base := strings.TrimSuffix(cfg.out, filepath.Ext(cfg.out))
		paths = []string{base + "-a" + filepath.Ext(cfg.out), base + "-b" + filepath.Ext(cfg.out)}
	}
	for s, path := range paths {
		if err := writeResult(path, results[s]); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	}
	if cfg.aa {
		regressed, err := compareFiles(os.Stdout, paths[0], paths[1])
		return failed || regressed, err
	}
	printResult(os.Stdout, results[0])
	return failed, nil
}

func setLabel(sets, s int) string {
	if sets == 1 {
		return ""
	}
	return " set " + string(rune('a'+s))
}

func writeResult(path string, r suiteResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of every workload by name and unit.
func printResult(w io.Writer, r suiteResult) {
	e := r.Env
	fmt.Fprintf(w, "env: %s %s/%s nproc=%d cpu=%q rev=%.12s dirty=%v %s\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.CPU, e.GitRev, e.GitDirty, e.Date)
	fmt.Fprintf(w, "seed=%d seconds=%g reps=%d\n", r.Seed, r.Seconds, r.Reps)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  GOMAXPROCS=%d rounds/rep=%v ops/round=%d  failed_ops_pct=%g (%d of %d)  sim_fingerprint=%s\n",
			wl.Name, wl.GOMAXPROCS, wl.Rounds, wl.OpsPerRound, wl.FailedOpsPct, wl.Failed, wl.Attempted, wl.Fingerprint)
		fmt.Fprintf(w, "  %-18s %-5s %14s %14s %14s  %s\n", "end-to-end", "unit", "median", "min", "max", "bound")
		for _, spec := range endToEnd {
			v := wl.EndToEnd[spec.name]
			fmt.Fprintf(w, "  %-18s %-5s %14.4f %14.4f %14.4f  %g%%\n", spec.name, v.Unit, v.Median, v.Min, v.Max, 100*spec.bound)
		}
		if wl.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  per-layer (traced run, %s)\n", wl.TraceFile)
		names := make([]string, 0, len(wl.PerLayer))
		for name := range wl.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := wl.PerLayer[name]
			fmt.Fprintf(w, "  %-40s %-5s %16.4f\n", name, m.Unit, m.Value)
		}
	}
}
