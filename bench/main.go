// Command bench is the repository's benchmark: six workloads over the
// simulator's public API, end-to-end host-time metrics from untraced
// runs, and per-layer metrics from a traced run (span recorder, CPU
// profile fold, direct probes). BENCHMARK.json at the repository root
// declares what it reports; README.md in this directory explains it.
//
// The benchmark is a module of its own (go.mod here replaces repro with
// the repository around it), so it is run from the repository root with
// -C bench:
//
//	go run -C bench . --workload h1_grid --seed 1 --seconds 10 --trace 0   # one run, result on the last line
//	go run -C bench .                                                      # every workload, 3 reps each, then traced runs
//	go run -C bench . -aa                                                  # two interleaved sets of this build, compared
//	go run -C bench . -compare a.json b.json                               # verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	_ "repro/internal/experiments" // registers every experiment
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run this one workload and print its result as the last line; empty runs the whole suite")
	seed := flag.Uint64("seed", 1, "bench seed: every scenario seed derives from it, the round and the op")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "with -workload: 1 makes the run a traced one, reporting the per-layer metrics")
	reps := flag.Int("reps", 3, "suite: fresh processes per workload; each end-to-end value is the median of them")
	out := flag.String("out", "", "suite: where to write the result file (default bench/out/result.json in the repository)")
	aa := flag.Bool("aa", false, "suite: run two interleaved sets of this build and compare them (writes <out>-a and <out>-b)")
	compare := flag.Bool("compare", false, "compare two suite result files given as arguments")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *spec:
		if err := writeSpec(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		failed, err := runSuite(suiteConfig{seed: *seed, seconds: *seconds, reps: *reps, aa: *aa, out: *out})
		if err != nil {
			return fail(err)
		}
		if failed {
			return 1
		}
		return 0
	}

	res, info, err := runWorkload(runConfig{workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace != 0, outDir: outDir})
	if err != nil {
		return fail(err)
	}
	for _, f := range info.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	// The run's context goes on its own line first; the result is the
	// last line, with exactly the keys the benchmark contract names.
	for _, line := range []any{map[string]any{"info": info}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}
