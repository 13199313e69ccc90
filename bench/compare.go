package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (suiteResult, error) {
	var r suiteResult
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worsening is how far b is worse than a as a share of a, positive when
// worse, for a metric that is better lower or higher.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict compares one metric's reps on two sides (a the base, b the
// change). The spread is the wider side's interquartile range as a share
// of its median; when it exceeds the bound the metric is unresolved,
// unless every rep of one side beats every rep of the other.
func verdict(a, b []float64, spec metricSpec) (string, float64, float64) {
	spread := func(v []float64) float64 {
		if m := median(v); m != 0 {
			return (quantile(v, 0.75) - quantile(v, 0.25)) / m
		}
		return 0
	}
	worse := worsening(median(a), median(b), spec.better)
	widest := max(spread(a), spread(b))
	separated := true // every rep of one side beats every rep of the other
	for _, x := range a {
		for _, y := range b {
			if w := worsening(x, y, spec.better); w == 0 || (w > 0) != (worse > 0) {
				separated = false
			}
		}
	}
	switch {
	case widest > spec.bound && !separated:
		return "unresolved", worse, widest
	case worse > spec.bound:
		return "regressed", worse, widest
	case worse < -spec.bound:
		return "improved", worse, widest
	}
	return "unchanged", worse, widest
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles over its reps, the bound and a verdict, and
// reports whether anything regressed or more ops failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	ea, eb := a.Env, b.Env
	ea.Date, eb.Date, ea.GitRev, eb.GitRev, ea.GitDirty, eb.GitDirty = "", "", "", "", false, false
	if ea != eb || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Reps != b.Reps {
		fmt.Fprintf(w, "warning: the two sides were not measured alike:\n  a: %+v seed=%d seconds=%g reps=%d\n  b: %+v seed=%d seconds=%g reps=%d\n",
			ea, a.Seed, a.Seconds, a.Reps, eb, b.Seed, b.Seconds, b.Reps)
	}
	fmt.Fprintf(w, "a: %s rev=%.12s dirty=%v\nb: %s rev=%.12s dirty=%v\n", pathA, a.Env.GitRev, a.Env.GitDirty, pathB, b.Env.GitRev, b.Env.GitDirty)
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	regressed := false
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s: missing from %s\n", wa.Name, pathB)
			continue
		}
		same := "identical"
		if wa.Fingerprint != wb.Fingerprint {
			same = "DIFFERENT: the two sides simulate different things"
		}
		fmt.Fprintf(w, "\n== %s  sim_fingerprint %s vs %s (%s)  failed_ops_pct %g vs %g\n",
			wa.Name, wa.Fingerprint, wb.Fingerprint, same, wa.FailedOpsPct, wb.FailedOpsPct)
		if wb.FailedOpsPct > wa.FailedOpsPct {
			fmt.Fprintf(w, "  failed_ops_pct rose: regressed\n")
			regressed = true
		}
		fmt.Fprintf(w, "  %-16s %-5s %38s %38s %7s %8s %7s  %s\n", "metric", "unit",
			"a: median [q1, q3]", "b: median [q1, q3]", "worse", "spread", "bound", "verdict")
		for _, spec := range endToEnd {
			va, vb := wa.EndToEnd[spec.name], wb.EndToEnd[spec.name]
			if len(va.Reps) == 0 || len(vb.Reps) == 0 {
				continue
			}
			v, worse, spread := verdict(va.Reps, vb.Reps, spec)
			regressed = regressed || v == "regressed"
			side := func(r []float64) string {
				return fmt.Sprintf("%.4f [%.4f, %.4f]", median(r), quantile(r, 0.25), quantile(r, 0.75))
			}
			fmt.Fprintf(w, "  %-16s %-5s %38s %38s %+6.1f%% %7.1f%% %6.1f%%  %s\n", spec.name, va.Unit,
				side(va.Reps), side(vb.Reps), 100*worse, 100*spread, 100*spec.bound, v)
		}
	}
	return regressed, nil
}
