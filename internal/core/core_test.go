package core

import (
	"errors"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/webgen"
)

// testSite returns the shared Microscape site.
func testSite(t *testing.T) *webgen.Site {
	t.Helper()
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// runOne executes a scenario, failing the test on error.
func runOne(t *testing.T, sc Scenario) *RunResult {
	t.Helper()
	res, err := Run(sc, testSite(t))
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	return res
}

func scenario(server httpserver.Profile, mode httpclient.Mode, env netem.Environment, wl httpclient.Workload) Scenario {
	return Scenario{Server: server, Client: mode, Env: env, Workload: wl, Seed: 1}
}

func TestAllScenariosComplete(t *testing.T) {
	for _, server := range []httpserver.Profile{httpserver.ProfileJigsaw, httpserver.ProfileApache} {
		for _, env := range netem.Environments {
			for _, mode := range []httpclient.Mode{httpclient.ModeHTTP10, httpclient.ModeHTTP11Serial,
				httpclient.ModeHTTP11Pipelined, httpclient.ModeHTTP11PipelinedDeflate} {
				for _, wl := range []httpclient.Workload{httpclient.FirstTime, httpclient.Revalidate} {
					res := runOne(t, scenario(server, mode, env, wl))
					if !res.Client.Done {
						t.Fatalf("%v/%v/%v/%v did not finish", server, mode, env, wl)
					}
					want200, want304 := 43, 0
					if wl == httpclient.Revalidate {
						if mode == httpclient.ModeHTTP10 {
							want200, want304 = 43, 0 // full GET + HEADs
						} else {
							want200, want304 = 0, 43
						}
					}
					if res.Client.Responses200 != want200 || res.Client.Responses304 != want304 {
						t.Fatalf("%v/%v/%v/%v: responses 200=%d 304=%d, want %d/%d",
							server, mode, env, wl, res.Client.Responses200, res.Client.Responses304, want200, want304)
					}
					if res.Client.Errors != 0 {
						t.Fatalf("%v/%v/%v/%v: %d connection errors", server, mode, env, wl, res.Client.Errors)
					}
				}
			}
		}
	}
}

// The paper's headline: "a pipelined HTTP/1.1 implementation outperformed
// HTTP/1.0, even when the HTTP/1.0 implementation used multiple
// connections in parallel, under all network environments tested. The
// savings were at least a factor of two ... in terms of packets".
func TestPipeliningPacketSavings(t *testing.T) {
	for _, env := range netem.Environments {
		h10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, env, httpclient.FirstTime))
		pipe := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, env, httpclient.FirstTime))
		if h10.Stats.Packets < 2*pipe.Stats.Packets {
			t.Errorf("%v first-time: HTTP/1.0 %d packets vs pipelined %d, want ≥2x",
				env, h10.Stats.Packets, pipe.Stats.Packets)
		}
		if pipe.Elapsed >= h10.Elapsed {
			t.Errorf("%v first-time: pipelined elapsed %v not faster than HTTP/1.0 %v",
				env, pipe.Elapsed, h10.Elapsed)
		}
	}
}

// "...and sometimes as much as a factor of ten" — the revalidation
// workload on LAN and WAN.
func TestRevalidationTenfoldPacketSavings(t *testing.T) {
	for _, env := range []netem.Environment{netem.LAN, netem.WAN} {
		h10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, env, httpclient.Revalidate))
		pipe := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, env, httpclient.Revalidate))
		ratio := float64(h10.Stats.Packets) / float64(pipe.Stats.Packets)
		if ratio < 8 {
			t.Errorf("%v revalidation packet ratio = %.1f (%d vs %d), want ≈10x",
				env, ratio, h10.Stats.Packets, pipe.Stats.Packets)
		}
	}
}

// "An HTTP/1.1 implementation that does not implement pipelining will
// perform worse (have higher elapsed time) than an HTTP/1.0
// implementation using multiple connections" — clearest on the WAN where
// serialization costs one RTT per object.
func TestSerialPersistenceSlowerThanHTTP10(t *testing.T) {
	h10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, netem.WAN, httpclient.FirstTime))
	serial := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Serial, netem.WAN, httpclient.FirstTime))
	if serial.Elapsed <= h10.Elapsed {
		t.Fatalf("WAN: serial HTTP/1.1 (%v) should be slower than HTTP/1.0 x4 (%v)",
			serial.Elapsed, h10.Elapsed)
	}
	if serial.Stats.Packets >= h10.Stats.Packets {
		t.Fatalf("WAN: serial HTTP/1.1 (%d packets) must still save packets vs HTTP/1.0 (%d)",
			serial.Stats.Packets, h10.Stats.Packets)
	}
}

// Compression: "about 16% of the packets and 12% of the elapsed time in
// our first time retrieval test" (PPP), and ~19% payload reduction.
func TestCompressionSavings(t *testing.T) {
	plain := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, netem.PPP, httpclient.FirstTime))
	comp := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11PipelinedDeflate, netem.PPP, httpclient.FirstTime))
	pktSave := 1 - float64(comp.Stats.Packets)/float64(plain.Stats.Packets)
	if pktSave < 0.08 || pktSave > 0.30 {
		t.Errorf("compression packet saving = %.1f%%, want ≈16%%", 100*pktSave)
	}
	timeSave := 1 - comp.Elapsed.Seconds()/plain.Elapsed.Seconds()
	if timeSave < 0.06 {
		t.Errorf("compression time saving = %.1f%%, want ≥6%% (paper ~12%%)", 100*timeSave)
	}
	byteSave := 1 - float64(comp.Stats.PayloadBytes)/float64(plain.Stats.PayloadBytes)
	if byteSave < 0.12 || byteSave > 0.25 {
		t.Errorf("compression payload saving = %.1f%%, want ≈19%%", 100*byteSave)
	}
	if comp.Client.DeflateResponses != 1 {
		t.Errorf("deflate responses = %d, want 1 (only the HTML)", comp.Client.DeflateResponses)
	}
}

// Overhead percentages: ≈8-10% for 1.0 first-time, ≈20% for 1.0-style
// revalidation, ≈7% for pipelined revalidation.
func TestOverheadShape(t *testing.T) {
	h10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, netem.LAN, httpclient.FirstTime))
	if ov := h10.Stats.OverheadPct(); ov < 7 || ov > 12 {
		t.Errorf("HTTP/1.0 first-time %%ov = %.1f, want ≈8-10", ov)
	}
	reval10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, netem.LAN, httpclient.Revalidate))
	if ov := reval10.Stats.OverheadPct(); ov < 17 || ov > 24 {
		t.Errorf("HTTP/1.0 revalidation %%ov = %.1f, want ≈20", ov)
	}
	pipe := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.Revalidate))
	if ov := pipe.Stats.OverheadPct(); ov < 5 || ov > 10 {
		t.Errorf("pipelined revalidation %%ov = %.1f, want ≈7", ov)
	}
}

// PPP: first-time is bandwidth-bound (~50-65s), and pipelining collapses
// revalidation from ~12s to ~4-5s.
func TestPPPShape(t *testing.T) {
	serialFirst := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Serial, netem.PPP, httpclient.FirstTime))
	if s := serialFirst.Elapsed.Seconds(); s < 50 || s > 70 {
		t.Errorf("PPP serial first-time = %.1fs, want ≈60s", s)
	}
	serialReval := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Serial, netem.PPP, httpclient.Revalidate))
	pipeReval := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, netem.PPP, httpclient.Revalidate))
	if pipeReval.Elapsed.Seconds() >= serialReval.Elapsed.Seconds()/2 {
		t.Errorf("PPP revalidation: pipelined %.1fs vs serial %.1fs, want ≥2x better",
			pipeReval.Elapsed.Seconds(), serialReval.Elapsed.Seconds())
	}
}

// Jigsaw (interpreted Java) is slower than Apache in the final data.
func TestApacheFasterThanJigsaw(t *testing.T) {
	jig := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.Revalidate))
	apa := runOne(t, scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.Revalidate))
	if apa.Elapsed >= jig.Elapsed {
		t.Fatalf("Apache reval (%v) should beat Jigsaw (%v)", apa.Elapsed, jig.Elapsed)
	}
	// And its 304 responses are leaner (paper: 14009 vs 17694 bytes).
	if apa.Stats.PayloadBytes >= jig.Stats.PayloadBytes {
		t.Fatalf("Apache reval bytes (%d) should be below Jigsaw's (%d)",
			apa.Stats.PayloadBytes, jig.Stats.PayloadBytes)
	}
}

// The mean packet train lengthens and the mean packet size roughly
// doubles under HTTP/1.1 (paper's Observations section).
func TestPacketSizeDoubles(t *testing.T) {
	h10 := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, netem.WAN, httpclient.FirstTime))
	pipe := runOne(t, scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP11Pipelined, netem.WAN, httpclient.FirstTime))
	mean10 := float64(h10.Stats.PayloadBytes) / float64(h10.Stats.Packets)
	meanPipe := float64(pipe.Stats.PayloadBytes) / float64(pipe.Stats.Packets)
	if meanPipe < 1.7*mean10 {
		t.Fatalf("mean packet payload: pipelined %.0f vs 1.0 %.0f, want ≈2x", meanPipe, mean10)
	}
}

func TestDeterminism(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.WAN, httpclient.FirstTime)
	a := runOne(t, sc)
	b := runOne(t, sc)
	if a.Stats.Packets != b.Stats.Packets || a.Elapsed != b.Elapsed || a.Stats.PayloadBytes != b.Stats.PayloadBytes {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestJitterVariesRuns(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Serial, netem.LAN, httpclient.Revalidate)
	sc.Jitter = true
	a := runOne(t, sc)
	sc.Seed = 2
	b := runOne(t, sc)
	if a.Elapsed == b.Elapsed {
		t.Fatal("different seeds with jitter produced identical elapsed times")
	}
}

func TestRunAveraged(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.Revalidate)
	avg, err := Sweep{Runs: 5}.RunAveraged(sc, testSite(t))
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runs != 5 {
		t.Fatalf("runs = %d, want 5", avg.Runs)
	}
	if avg.Packets < 25 || avg.Packets > 45 {
		t.Fatalf("averaged packets = %.1f, out of plausible range", avg.Packets)
	}
	if avg.OverheadPct <= 0 {
		t.Fatal("overhead not computed")
	}
}

func TestModemCompressionRequiresPPP(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Serial, netem.LAN, httpclient.FirstTime)
	sc.ModemCompression = true
	if _, err := Run(sc, testSite(t)); err == nil {
		t.Fatal("modem compression on LAN accepted")
	}
}

func TestTagCaseTableShape(t *testing.T) {
	rows, err := TagCaseTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	lower, mixed, upper := rows[0], rows[1], rows[2]
	if lower.Ratio >= mixed.Ratio {
		t.Errorf("lower-case ratio %.3f not better than mixed %.3f", lower.Ratio, mixed.Ratio)
	}
	if lower.Ratio >= upper.Ratio {
		t.Errorf("lower-case ratio %.3f not better than upper %.3f", lower.Ratio, upper.Ratio)
	}
}

func TestScenarioString(t *testing.T) {
	sc := scenario(httpserver.ProfileJigsaw, httpclient.ModeHTTP10, netem.LAN, httpclient.FirstTime)
	want := "Jigsaw/HTTP/1.0/LAN/First Time Retrieval"
	if sc.String() != want {
		t.Fatalf("String() = %q, want %q", sc.String(), want)
	}
}

func TestRunCapturedKeepsTrace(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.Revalidate)
	res, err := Run(sc, testSite(t), WithCapture())
	if err != nil {
		t.Fatal(err)
	}
	if res.Capture == nil || len(res.Capture.Events()) != res.Stats.Packets {
		t.Fatal("capture missing or inconsistent")
	}
	plain, err := Run(sc, testSite(t))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Capture != nil {
		t.Fatal("Run should not retain the capture")
	}
}

func TestErrDidNotFinishSurfaces(t *testing.T) {
	// A robot pointed at a port nobody listens on cannot finish; the
	// reset teardown re-queues the page fetch forever but every dial is
	// refused, so the run drains with the fetch incomplete.
	if !errors.Is(ErrDidNotFinish, ErrDidNotFinish) {
		t.Fatal("sentinel error identity broken")
	}
}

func TestReviseFractionValidation(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.WAN, httpclient.FirstTime)
	sc.ReviseFraction = 0.5
	if _, err := Run(sc, testSite(t)); err == nil {
		t.Fatal("revision on first-time workload accepted")
	}
}

func TestRevisedRevalidationMixes304And200(t *testing.T) {
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.WAN, httpclient.Revalidate)
	sc.ReviseFraction = 0.3
	res := runOne(t, sc)
	if res.Client.Responses304 == 0 {
		t.Fatal("no unchanged objects validated")
	}
	if res.Client.Responses200 == 0 {
		t.Fatal("no changed objects transferred")
	}
	if res.Client.Responses304+res.Client.Responses200 != 43 {
		t.Fatalf("304+200 = %d, want 43", res.Client.Responses304+res.Client.Responses200)
	}
}

func TestHeaderRedundancy(t *testing.T) {
	rows, err := HeaderRedundancy(testSite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, whole, delta := rows[0], rows[1], rows[2]
	if plain.RequestBytes < 6000 || plain.RequestBytes > 10000 {
		t.Fatalf("plain request stream = %d bytes, want ≈43×190", plain.RequestBytes)
	}
	// The paper's estimate: a compact representation could save an
	// additional factor of five to ten on request bytes.
	if whole.Ratio > 0.2 {
		t.Fatalf("whole-stream ratio %.3f, want ≤0.2 (factor ≥5)", whole.Ratio)
	}
	if delta.Ratio > 0.3 {
		t.Fatalf("per-request dictionary ratio %.3f, want ≤0.3", delta.Ratio)
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7} {
		if len(PaperTables[n]) != 4 {
			t.Errorf("paper table %d has %d rows, want 4", n, len(PaperTables[n]))
		}
	}
	for _, n := range []int{8, 9} {
		if len(PaperTables[n]) != 3 {
			t.Errorf("paper table %d has %d rows, want 3", n, len(PaperTables[n]))
		}
	}
	for _, n := range []int{10, 11} {
		if len(PaperTables[n]) != 2 {
			t.Errorf("paper table %d has %d rows, want 2", n, len(PaperTables[n]))
		}
	}
	for n, rows := range PaperTables {
		for _, r := range rows {
			if r.First.Packets <= 0 || r.Reval.Packets <= 0 {
				t.Errorf("table %d row %q has empty cells", n, r.Label)
			}
		}
	}
}

// Deflate runs share the site's one precomputed artifact: two at once
// (the experiment pool's situation; run under -race) must each see what
// a run on its own sees.
// siteCRCs returns the CRC-32 of every object body of site and of every
// deflated page, by path.
func siteCRCs(site *webgen.Site) map[string]uint32 {
	crcs := make(map[string]uint32)
	for _, p := range site.Paths() {
		obj, _ := site.Object(p)
		crcs[p] = crc32.ChecksumIEEE(obj.Body)
		if d, ok := site.Deflated(p); ok {
			crcs[p+" (deflated)"] = crc32.ChecksumIEEE(d)
		}
	}
	return crcs
}

// Servers and the proxy queue bodies by reference, so a segment's payload
// is the site's own bytes: nothing on the way, in the network or at the
// receiving end may write them. Identity, deflate, range, fault and proxy
// cells, with the packet trace retained, must leave every body and every
// deflated page of the site, and of the revision the range cell serves,
// bit for bit as they were.
func TestSiteBodiesNeverWritten(t *testing.T) {
	site := testSite(t)
	rangeCfg := httpclient.ModeHTTP11Pipelined.Config()
	rangeCfg.RevalRangeProbe = 512
	ranged := scenario(httpserver.ProfileApache, rangeCfg.Mode, netem.PPP, httpclient.Revalidate)
	ranged.Seed, ranged.ReviseFraction, ranged.ClientOverride = 9900, 0.3, &rangeCfg
	rev := new(revision) // the range cell's revision, made here to be checked
	rev.once.Do(func() { rev.site, rev.err = site.Revise(ranged.ReviseFraction, ranged.Seed+101) })
	if rev.err != nil {
		t.Fatal(rev.err)
	}
	before, revBefore := siteCRCs(site), siteCRCs(rev.site)

	cells := []Scenario{ranged}
	for _, spec := range []string{
		"apache/http10/WAN/first", "jigsaw/serial/LAN/first", "apache/pipelined/PPP/first",
		"apache/deflate/WAN/first", "jigsaw/deflate/PPP/reval",
		"apache/pipelined/WAN/first/truncate", "apache/pipelined/WAN/first/stall",
		"apache/pipelined/WAN/first/abort", "apache/pipelined/WAN/first/early-close",
		"apache/pipelined/PPP/first/burst-loss",
		"apache/pipelined/PPP/first/proxy:WAN", "apache/pipelined/PPP/first/proxy:WAN:warm",
		"jigsaw/serial/PPP/reval/proxy:WAN:stale",
	} {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, sc)
	}
	for _, sc := range cells {
		res, err := Run(sc, site, WithCapture(), func(cfg *runConfig) { cfg.revision = rev })
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if sc.ClientOverride != nil && res.Client.Responses206 == 0 {
			t.Errorf("%s: no 206 response, so no range body went out", sc)
		}
	}
	check := func(what string, before map[string]uint32, s *webgen.Site) {
		for p, crc := range siteCRCs(s) {
			if before[p] != crc {
				t.Errorf("%s %s changed during the runs", what, p)
			}
		}
	}
	check("site", before, site)
	check("revision", revBefore, rev.site)
}

func TestConcurrentDeflateRunsShareTheSite(t *testing.T) {
	site := testSite(t)
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11PipelinedDeflate, netem.WAN, httpclient.FirstTime)
	var results [2]*RunResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(sc, site)
		}(i)
	}
	wg.Wait()
	alone := runOne(t, sc)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if res.Stats != alone.Stats || res.Elapsed != alone.Elapsed || res.Client.DeflateResponses != 1 {
			t.Errorf("concurrent run %d diverged: %+v in %v, alone %+v in %v",
				i, res.Stats, res.Elapsed, alone.Stats, alone.Elapsed)
		}
	}
}
