package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/webgen"
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for no values. It sorts a copy.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the nearest-rank q-quantile of v, interpolating only
// for the median of an even count.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// warmupRoundIndex keeps warm-up seeds apart from every timed round's.
const warmupRoundIndex = ^uint64(0)

// opSeed derives an op's scenario seed from the bench seed, the round
// and the op's position (SplitMix64 finalizer), so the system under
// test receives only generated inputs.
func opSeed(seed, round uint64, idx int) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ round*0xbf58476d1ce4e5b9 ^ uint64(idx+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// runConfig selects one measured run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// quick is for tests: one set-up, one timed round and the smallest
	// probe counts.
	quick  bool
	outDir string // where a traced run writes trace-<workload>.json
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is what a run knows beyond its metrics; it is printed on the
// line before the result.
type runInfo struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Trace       bool     `json:"trace"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Rounds      int      `json:"rounds"`
	OpsPerRound int      `json:"ops_per_round"`
	RoundMinMs  float64  `json:"round_min_ms"`
	RoundMaxMs  float64  `json:"round_max_ms"`
	Fingerprint string   `json:"sim_fingerprint"`
	Failures    []string `json:"failures,omitempty"`
	TraceFile   string   `json:"trace_file,omitempty"`
}

// meter runs rounds of one workload and accumulates what the metrics
// are computed from.
type meter struct {
	w    *workload
	seed uint64

	next       uint64     // next round index
	ref        []opResult // round 0, the reference for the determinism replay
	attempted  int
	failed     int
	failures   []string
	roundTimes []float64 // ms, every timed round
}

// segment is the host cost of a contiguous batch of timed rounds.
type segment struct {
	rounds     int
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	roundTimes []float64 // ms
	opTimes    []float64 // µs, kept only when recording
	events     uint64
}

func (m *meter) fail(name, why string) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, name+": "+why)
	}
}

// round runs the op list once with round index r's seeds. Round 0 is
// kept as the reference; any later round 0 (the replay) must reproduce
// every op's fingerprint, as must every round of a workload whose seeds
// are pinned.
func (m *meter) round(r uint64, rec *recorder, seg *segment) {
	id := rec.begin("round", -1)
	start := time.Now()
	results := make([]opResult, len(m.w.ops))
	for i, o := range m.w.ops {
		t0 := time.Now()
		res := o.run(opSeed(m.seed, r, i), i, rec)
		d := time.Since(t0)
		results[i] = res
		seg.events += res.counts[cEvents]
		if rec != nil {
			seg.opTimes = append(seg.opTimes, us(d))
			for _, b := range o.blocks {
				rec.observe("core.run_p50_us."+b, us(d))
			}
		}
		m.attempted++
		if res.failed != "" {
			m.fail(o.name, res.failed)
		}
	}
	seg.roundTimes = append(seg.roundTimes, ms(time.Since(start)))
	rec.end(id)
	seg.rounds++
	switch {
	case m.ref == nil:
		m.ref = results
	case r == 0 || m.w.pinnedSeeds:
		for i, res := range results {
			if res.fp != m.ref[i].fp {
				m.fail(m.w.ops[i].name, fmt.Sprintf("determinism replay: fingerprint %v, first run %v", res.fp, m.ref[i].fp))
			}
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run times rounds until the budget is spent (at least one), then, when
// replay is set, one more round with round 0's seeds, also timed. With
// fixed > 0 it runs exactly that many rounds instead.
func (m *meter) run(budget time.Duration, fixed int, replay bool, rec *recorder) segment {
	var seg segment
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	for {
		m.round(m.next, rec, &seg)
		m.next++
		if fixed > 0 && seg.rounds >= fixed || fixed == 0 && time.Since(start) >= budget {
			break
		}
	}
	if replay && !m.w.pinnedSeeds {
		m.round(0, rec, &seg)
	}
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	seg.mallocs = ms1.Mallocs - ms0.Mallocs
	seg.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	seg.numGC = ms1.NumGC - ms0.NumGC
	m.roundTimes = append(m.roundTimes, seg.roundTimes...)
	return seg
}

// fingerprint is the CRC-32 of round 0's op fingerprints: equal across
// two commits exactly when they simulate the same thing for this seed.
func (m *meter) fingerprint() string {
	h := crc32.NewIEEE()
	for _, r := range m.ref {
		_ = binary.Write(h, binary.LittleEndian, r.fp) // a hash never fails a write
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// setup builds the site and the workload and runs its warm-up, as a
// fresh process would before its first timed op.
func setup(spec workloadSpec, cfg runConfig) (*workload, int, []string, error) {
	synthesize := func() (*webgen.Site, error) { return webgen.Microscape(webgen.Options{Seed: 1}) }
	if cfg.quick {
		synthesize = core.DefaultSite // the same site, built once per process
	}
	site, err := synthesize()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("synthesizing the site: %w", err)
	}
	w, err := spec.build(site, buildOptions{counting: cfg.trace, quick: cfg.quick})
	if err != nil {
		return nil, 0, nil, err
	}
	n, failures := w.warmup(cfg.seed)
	return w, n, failures, nil
}

// runWorkload performs one run: set-up (several times, median
// reported), timed rounds for cfg.seconds, the determinism replay, and
// on a traced run the span recorder, CPU profile and probes.
func runWorkload(cfg runConfig) (result, runInfo, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		var names []string
		for _, s := range workloadSpecs {
			names = append(names, s.name)
		}
		return result{}, runInfo{}, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(names, ", "))
	}
	procs := min(runtime.NumCPU(), spec.procs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	setups, fixed := 3, 0
	if cfg.quick {
		setups, fixed = 1, 1
	}
	var w *workload
	var setupTimes []float64
	var warmChecks int
	var warmFailures []string
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if w, warmChecks, warmFailures, err = setup(spec, cfg); err != nil {
			return result{}, runInfo{}, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	m := &meter{w: w, seed: cfg.seed, attempted: warmChecks}
	for _, f := range warmFailures {
		m.fail("warm-up", f)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	info := runInfo{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, GOMAXPROCS: procs, OpsPerRound: len(w.ops)}
	if !cfg.trace {
		seg := m.run(budget, fixed, true, nil)
		ops := float64(seg.rounds * len(w.ops))
		fill(res.Metrics, endToEnd, map[string]float64{
			"setup_s":         median(setupTimes),
			"ops_per_s":       ops / seg.wall.Seconds(),
			"round_p50_ms":    median(seg.roundTimes),
			"cpu_ms_per_op":   ms(seg.cpu) / ops,
			"allocs_per_op":   float64(seg.mallocs) / ops,
			"alloc_kb_per_op": float64(seg.allocBytes) / 1024 / ops,
		})
	} else {
		traceFile, err := m.traced(budget, fixed, cfg, res.Metrics)
		if err != nil {
			return result{}, runInfo{}, err
		}
		info.TraceFile = traceFile
	}
	res.Attempted, res.Failed, res.Correct = m.attempted, m.failed, m.failed == 0
	info.Rounds = len(m.roundTimes)
	info.RoundMinMs, info.RoundMaxMs = quantile(m.roundTimes, 0), quantile(m.roundTimes, 1)
	info.Fingerprint = m.fingerprint()
	info.Failures = m.failures
	return res, info, nil
}

// traced is the traced run: two thirds of the budget under the span
// recorder and the CPU profiler, with a sixth untraced on either side
// of it so that host drift cancels out of the tracing overhead; then
// the probes. It fills every per-layer metric.
func (m *meter) traced(budget time.Duration, fixed int, cfg runConfig, out map[string]metric) (string, error) {
	// The recorder exists before the first untraced round: these
	// workloads keep so little live heap that the recorder's own buffers
	// would otherwise lower the GC rate of the traced rounds alone and
	// make tracing look faster than not tracing.
	rec := newRecorder()
	plain := m.run(budget/6, fixed, false, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return "", fmt.Errorf("starting the CPU profile: %w", err)
	}
	root := rec.begin("workload "+m.w.name, -1)
	seg := m.run(budget-2*(budget/6), fixed, false, rec)
	rec.end(root)
	pprof.StopCPUProfile()
	after := m.run(budget/6, fixed, true, nil)
	plain.roundTimes = append(plain.roundTimes, after.roundTimes...)
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return "", err
	}
	shares, profSamples := foldProfile(samples)

	probes := rec.begin("probes", -1)
	err = runProbes(rec, cfg.quick)
	rec.end(probes)
	if err != nil {
		return "", err
	}

	v := map[string]float64{}
	for key, s := range rec.samples {
		v[key] = median(s)
	}
	ops := float64(seg.rounds * len(m.w.ops))
	var c counts
	for _, r := range m.ref {
		c.add(r.counts)
	}
	for k, name := range countMetrics {
		if name != "" {
			v[name] = float64(c[k]) / float64(len(m.ref))
		}
	}
	if seg.events > 0 {
		v["sim.host_ns_per_event"] = float64(seg.wall) / float64(seg.events)
	}
	if c[cCacheLookups] > 0 {
		v["cache.hit_ratio"] = float64(c[cCacheHits]) / float64(c[cCacheLookups])
	}
	v["core.run_p50_us"] = median(seg.opTimes)
	v["core.run_p99_us"] = quantile(seg.opTimes, 0.99)
	v["core.run_samples"] = float64(len(seg.opTimes))
	for layer, pct := range shares {
		v[shareMetric(layer)] += pct
	}
	v["goruntime.num_gc_per_op"] = float64(seg.numGC) / ops
	v["goruntime.peak_rss_mb"] = peakRSSMB()
	v["bench.profile_samples"] = float64(profSamples)
	v["bench.trace_overhead_pct"] = 100 * (median(seg.roundTimes)/median(plain.roundTimes) - 1)
	if m.w.layerMetrics != nil {
		m.w.layerMetrics(v)
	}
	fill(out, perLayer, v)
	return rec.writeFile(filepath.Join(cfg.outDir, "trace-"+m.w.name+".json"))
}

// fill reports the value of every metric specs declares; a metric with
// no value reads 0.
func fill(out map[string]metric, specs []metricSpec, v map[string]float64) {
	for _, spec := range specs {
		out[spec.name] = metric{v[spec.name], spec.unit}
	}
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
