package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	_ "repro/internal/experiments"
)

// TestBenchmarkJSON pins BENCHMARK.json to the program's own tables and
// to the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run -C bench . -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, specs []metricSpec) {
		for _, m := range specs {
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s metric %q unit %q: bad name or unit", kind, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s: better = %q", m.name, m.better)
			}
		}
	}
	check("end-to-end", endToEnd)
	check("per-layer", perLayer)
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, better lower")
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// TestWorkloadsReportEveryMetric runs each workload untraced at its
// smallest size and checks the result carries every end-to-end metric,
// none of them zero, and that every op passed its output check.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, spec := range workloadSpecs {
		res, info, err := runWorkload(runConfig{workload: spec.name, seed: 7, quick: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", spec.name, res.Correct, res.Attempted, res.Failed, info.Failures)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", spec.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || !(got.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", spec.name, m.name, got, ok, m.unit)
			}
		}
		if len(info.Fingerprint) != 8 || info.OpsPerRound == 0 {
			t.Errorf("%s: info %+v", spec.name, info)
		}
	}
}

// TestTracedRunReportsEveryLayer runs one traced run at its smallest
// size: every per-layer metric is present, the CPU shares sum to 100,
// and the trace file's span self times add up to the traced wall.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	dir := t.TempDir()
	res, info, err := runWorkload(runConfig{workload: "h1_grid", seed: 7, trace: true, quick: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed ops: %v", info.Failures)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	shares := 0.0
	for _, m := range perLayer {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v (present %v)", m.name, got, ok)
		}
		if strings.HasSuffix(m.name, "cpu_share_pct") {
			shares += got.Value
		}
	}
	if res.Metrics["bench.profile_samples"].Value > 0 && math.Abs(shares-100) > 1 {
		t.Errorf("CPU shares sum to %g, want 100", shares)
	}
	for _, probe := range []string{"httpmsg.parse_page_us", "flatez.deflate_html_us", "mux.loopback_frames_per_s",
		"tcpsim.bulk_clean_packets_per_s", "core.run_p50_us.mux_faults", "trace.write_pcap_us", "exp.generate_ms.3"} {
		if !(res.Metrics[probe].Value > 0) {
			t.Errorf("%s = %g, want a measurement", probe, res.Metrics[probe].Value)
		}
	}

	data, err := os.ReadFile(info.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct {
				Parent int
				SelfUs float64 `json:"self_us"`
			}
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	var self, roots float64
	for _, e := range trace.TraceEvents {
		self += e.Args.SelfUs
		if e.Args.Parent == -1 {
			roots += e.Dur
		}
	}
	if roots == 0 || math.Abs(self-roots)/roots > 0.02 {
		t.Errorf("span self times sum to %g µs, top-level spans to %g µs", self, roots)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0},
		{name: "a.inner", start: at(15), end: at(25), parent: 1},
		{name: "b", start: at(30), end: at(60), parent: 0},  // overlaps a by 10
		{name: "c", start: at(90), end: at(120), parent: 0}, // runs past the root
		{name: "d", start: at(45), end: at(50), parent: 0},  // inside b's interval
		{name: "other", start: at(200), end: at(210), parent: -1},
	}
	want := []time.Duration{at(40), at(20), at(10), at(30), at(30), at(5), at(10)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	var nilRec *recorder
	if d := nilRec.time("x", 0, func() {}); d < 0 {
		t.Error("nil recorder must still time")
	}
	nilRec.observe("k", 1) // must not panic
	r := newRecorder()
	outer := r.begin("outer", -1)
	r.time("inner", 3, func() {})
	r.end(outer)
	if len(r.spans) != 2 || r.spans[1].parent != outer || r.spans[1].op != 3 || r.spans[0].parent != -1 {
		t.Errorf("spans = %+v", r.spans)
	}
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("chrome trace is not valid JSON: %s", buf.Bytes())
	}
}

// Protobuf writers for the fold fixture built in the test.
func pbTag(num, wire int) []byte { return pbUvarint(uint64(num<<3 | wire)) }

func pbUvarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(num int, v uint64) []byte { return append(pbTag(num, 0), pbUvarint(v)...) }

func pbLen(num int, payload ...[]byte) []byte {
	body := bytes.Join(payload, nil)
	return append(append(pbTag(num, 2), pbUvarint(uint64(len(body)))...), body...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = append(body, pbUvarint(v)...)
	}
	return pbLen(num, body)
}

func gz(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldProfileSynthetic folds a hand-built profile that exercises
// each rule: innermost repro/internal frame, inlined lines, the bench's
// own frames, GC wherever it runs, the rest of the runtime, and both
// packed and unpacked repeated fields.
func TestFoldProfileSynthetic(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "repro/internal/httpmsg.(*ResponseParser).Feed",
		"repro/internal/core.run", "main.runPlain", "runtime.gcBgMarkWorker", "runtime.mcall",
		"repro/internal/sim.(*Simulator).Run", "runtime.gcAssistAlloc", "repro/internal/exp.ForEach[...]"}
	var p []byte
	for _, s := range strs {
		p = append(p, pbLen(6, []byte(s))...)
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = append(p, pbLen(5, pbInt(1, id), pbInt(2, id))...) // function id = its name's index
	}
	loc := func(id uint64, funcs ...uint64) []byte {
		parts := [][]byte{pbInt(1, id)}
		for _, f := range funcs {
			parts = append(parts, pbLen(4, pbInt(1, f)))
		}
		return pbLen(4, parts...)
	}
	p = append(p, loc(1, 1)...)    // mallocgc
	p = append(p, loc(2, 2)...)    // httpmsg
	p = append(p, loc(3, 3)...)    // core
	p = append(p, loc(4, 4)...)    // bench
	p = append(p, loc(5, 5)...)    // gc worker
	p = append(p, loc(6, 6)...)    // runtime.mcall
	p = append(p, loc(7, 1, 7)...) // mallocgc inlined into sim.Run
	p = append(p, loc(8, 8)...)    // gc assist
	p = append(p, loc(9, 9)...)    // generic exp frame
	sample := func(count uint64, locs ...uint64) []byte {
		return pbLen(2, pbPacked(1, locs...), pbPacked(2, count, count*10_000_000))
	}
	p = append(p, sample(4, 1, 2, 3, 4)...) // malloc under httpmsg under core under bench → httpmsg
	p = append(p, sample(2, 3, 4)...)       // core under bench → core
	p = append(p, sample(1, 4)...)          // bench alone
	p = append(p, sample(1, 5)...)          // background GC
	p = append(p, sample(1, 6)...)          // runtime
	p = append(p, sample(3, 7, 3, 4)...)    // inlined: sim
	p = append(p, sample(2, 8, 1, 2, 4)...) // assist under httpmsg → GC
	p = append(p, sample(1, 1, 9, 4)...)    // exp
	// One sample with unpacked repeated fields.
	p = append(p, pbLen(2, pbInt(1, 2), pbInt(1, 4), pbInt(2, 5), pbInt(2, 50_000_000))...)

	samples, err := decodeProfile(gz(t, p))
	if err != nil {
		t.Fatal(err)
	}
	shares, total := foldProfile(samples)
	if total != 20 {
		t.Fatalf("total = %d samples, want 20", total)
	}
	want := map[string]float64{"httpmsg": 45, "core": 10, layerBench: 5, layerGC: 15, layerRuntime: 5, "sim": 15, "exp": 5}
	for layer, pct := range want {
		if math.Abs(shares[layer]-pct) > 1e-9 {
			t.Errorf("share of %s = %g, want %g", layer, shares[layer], pct)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v", shares)
	}
	if shareMetric("exp") != "misc.cpu_share_pct" || shareMetric("lzw") != "codecs.cpu_share_pct" || shareMetric("sim") != "sim.cpu_share_pct" {
		t.Error("shareMetric maps layers to the wrong metrics")
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
	if _, err := decodeProfile(gz(t, []byte{0x0a, 0x7f})); err == nil {
		t.Error("decodeProfile accepted a truncated message")
	}
}

// TestFoldProfileFixture folds a real runtime/pprof CPU profile, taken
// from a short h1_grid run of this program, so the decoder is checked
// against what the runtime actually writes.
func TestFoldProfileFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "h1_grid.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	shares, total := foldProfile(samples)
	if total < 20 {
		t.Fatalf("fixture has %d samples", total)
	}
	sum := 0.0
	for _, pct := range shares {
		sum += pct
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %g", sum)
	}
	// The sizing observation the fixture was taken to show.
	if app := shares["htmlparse"] + shares["httpmsg"] + shares[layerGC]; app < 40 || shares["sim"] > 15 || shares["flatez"] != 0 {
		t.Errorf("h1_grid shares look wrong: %v", shares)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "round_p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "ops_per_s", better: "higher", bound: 0.10}
	cases := []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same", []float64{100, 101, 102}, []float64{101, 100, 102}, lower, "unchanged"},
		{"slower", []float64{100, 101, 102}, []float64{120, 121, 119}, lower, "regressed"},
		{"faster", []float64{100, 101, 102}, []float64{80, 81, 79}, lower, "improved"},
		{"higher is better", []float64{100, 101, 102}, []float64{80, 81, 79}, higher, "regressed"},
		{"noisy overlap", []float64{100, 140, 90}, []float64{120, 95, 150}, lower, "unresolved"},
		{"noisy but separated", []float64{100, 140, 90}, []float64{200, 260, 190}, lower, "regressed"},
		{"small shift inside the bound", []float64{100, 101, 102}, []float64{105, 106, 104}, lower, "unchanged"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestOpSeedSeparatesInputs(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, round := range []uint64{0, 1, warmupRoundIndex} {
			for idx := 0; idx < 104; idx++ {
				s := opSeed(seed, round, idx)
				if seen[s] {
					t.Fatalf("opSeed(%d, %d, %d) repeats an earlier seed", seed, round, idx)
				}
				seen[s] = true
			}
		}
	}
	if opSeed(1, 0, 0) != opSeed(1, 0, 0) {
		t.Error("opSeed is not a function of its arguments")
	}
}

// TestCompareFiles covers the comparison's exit rule and its warnings on
// two small result files.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	side := func(file string, round []float64, failedPct float64, cpu string) string {
		r := suiteResult{Env: envStamp{GoVersion: "go1.24", CPU: cpu}, Seed: 1, Seconds: 10, Reps: 3,
			Workloads: []workloadResult{{Name: "h1_grid", Fingerprint: "1145e14a", FailedOpsPct: failedPct,
				EndToEnd: map[string]repValues{"round_p50_ms": {Unit: "ms", Reps: round}}}}}
		path := filepath.Join(dir, file)
		if err := writeResult(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := side("a.json", []float64{100, 101, 102}, 0, "x")
	cases := []struct {
		name          string
		other         string
		wantRegressed bool
		wantText      string
	}{
		{"same", side("same.json", []float64{101, 100, 103}, 0, "x"), false, "unchanged"},
		{"slower", side("slow.json", []float64{130, 131, 132}, 0, "x"), true, "regressed"},
		{"more failures", side("fail.json", []float64{100, 101, 102}, 0.5, "x"), true, "failed_ops_pct rose"},
		{"other host", side("host.json", []float64{100, 101, 102}, 0, "y"), false, "not measured alike"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, c.other)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.wantRegressed || !strings.Contains(out.String(), c.wantText) {
			t.Errorf("%s: regressed = %v, output:\n%s", c.name, regressed, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("compareFiles accepted a missing file")
	}
}
