package experiments

import (
	"fmt"
	"hash/crc32"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// The whole-population tests share one replay: every scenario Scenarios
// declares, and each of extraScenarios after them, is simulated exactly
// twice, observed (packet trace retained, timeline and blame armed) and
// plain, on a pool of GOMAXPROCS workers, and each pair is handed to
// every checker below, an extra's only to those with extras set. Only
// what the checkers keep outlives a pair, so memory stays flat however
// many scenarios there are. A new whole-population check is one more
// entry here plus a test that reports its findings; it adds no
// simulation.
var checkers = []checker{
	{"export-crc", checkExport, false},
	{"blame-conservation", checkBlame, false},
	{"tallies", checkTallies, false},
	{"non-perturbation", checkNonPerturbation, true},
	{"bus-order", checkBusOrder, true},
	{"wedge", checkWedge, false},
}

// extraScenarios are cells no experiment declares whose fault paths the
// site-body and non-perturbation checks must still reach: an HTTP/1.x
// server truncating or aborting a response. Declaring them would change
// the faults table and export_crc.txt, so only the replay runs them.
var extraScenarios = []string{
	"apache/pipelined/WAN/first/truncate",
	"apache/pipelined/WAN/first/abort",
}

// A checker inspects one scenario's pair of runs and records what it
// found in f. It runs on a pool worker beside other scenarios' checks,
// so it may touch nothing but its arguments. A checker without extras
// sees exactly the declared scenarios.
type checker struct {
	name   string
	check  func(observed, plain *core.RunResult, f *finding)
	extras bool
}

// A finding is what one checker kept from one scenario.
type finding struct {
	// note is what the checker's test aggregates in scenario order: the
	// export_crc.txt line, a short-path mark.
	note string
	errs []string
}

func (f *finding) errorf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

// replay is what the shared replay kept.
type replay struct {
	scenarios []core.Scenario // the declared ones, then the extras
	findings  [][]finding     // [checker][scenario the checker sees]
	runs      int64           // simulations executed
	err       error           // the lowest-numbered failed run; it stops the replay
	// wrote marks the scenarios after one of whose runs a body of the
	// site no longer matched its checksum from before the replay.
	wrote []bool
}

var (
	replayOnce sync.Once
	shared     replay
)

// replayed returns the shared replay, running it on first use. It fails t
// when a run failed or when the replay did not simulate each declared
// and each extra scenario exactly twice.
func replayed(t *testing.T) *replay {
	t.Helper()
	replayOnce.Do(func() { shared = runReplay() })
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	if want := 2 * int64(len(shared.scenarios)); shared.runs != want {
		t.Fatalf("replay ran %d simulations, want %d: one observed and one plain per declared and extra scenario", shared.runs, want)
	}
	return &shared
}

func runReplay() (r replay) {
	site, err := core.DefaultSite()
	if err != nil {
		r.err = err
		return r
	}
	r.scenarios = Scenarios()
	declared := len(r.scenarios)
	for _, spec := range extraScenarios {
		sc, err := core.ParseScenario(spec)
		if err != nil {
			r.err = err
			return r
		}
		r.scenarios = append(r.scenarios, sc)
	}
	r.findings = make([][]finding, len(checkers))
	for c, ch := range checkers {
		if ch.extras {
			r.findings[c] = make([]finding, len(r.scenarios))
		} else {
			r.findings[c] = make([]finding, declared)
		}
	}
	r.wrote = make([]bool, len(r.scenarios))
	rp := newReplayer(site)
	r.err = sim.ForEach(runtime.GOMAXPROCS(0), len(r.scenarios), func(i int) error {
		observed, plain, wrote, err := rp.pair(r.scenarios[i])
		if err != nil {
			return err
		}
		r.wrote[i] = wrote != nil
		for c, ch := range checkers {
			if i < len(r.findings[c]) {
				ch.check(observed, plain, &r.findings[c][i])
			}
		}
		return nil
	})
	r.runs = rp.runs.Load()
	return r
}

// A replayer runs scenario pairs on one site, counting the runs and
// watching the bodies the site serves.
type replayer struct {
	site   *webgen.Site
	bodies map[string]uint32 // siteCRCs before the first run
	runs   atomic.Int64
}

func newReplayer(site *webgen.Site) *replayer {
	return &replayer{site: site, bodies: siteCRCs(site)}
}

// pair simulates sc observed and then plain. wrote lists the bodies of
// the site that differed from their first checksum after the first run
// that left any differing, or is nil.
func (rp *replayer) pair(sc core.Scenario) (observed, plain *core.RunResult, wrote []string, err error) {
	run := func(opts ...core.Option) (*core.RunResult, error) {
		rp.runs.Add(1)
		res, err := core.Run(sc, rp.site, opts...)
		if after := siteCRCs(rp.site); wrote == nil && !maps.Equal(rp.bodies, after) {
			wrote = changedBodies(rp.bodies, after)
		}
		return res, err
	}
	if observed, err = run(core.WithCapture(), core.WithTimeline(), core.WithBlame()); err != nil {
		return nil, nil, nil, fmt.Errorf("%s (observed): %v", sc, err)
	}
	if plain, err = run(); err != nil {
		return nil, nil, nil, fmt.Errorf("%s (plain): %v", sc, err)
	}
	return observed, plain, wrote, nil
}

// report fails t with each error the named checker found, naming the
// checker and the scenario, and returns its findings in scenario order.
func (r *replay) report(t *testing.T, name string) []finding {
	t.Helper()
	for c, ch := range checkers {
		if ch.name != name {
			continue
		}
		for i, f := range r.findings[c] {
			for _, e := range f.errs {
				t.Errorf("%s: %s: %s", name, r.scenarios[i], e)
			}
		}
		return r.findings[c]
	}
	t.Fatalf("no checker named %q", name)
	return nil
}

// siteCRCs returns the CRC-32 of every body site serves by reference,
// by path: each object, each deflated page and each Http-Burst body.
// Asking for the deflated and burst bodies builds them, so a snapshot
// taken before any run covers the very bytes the runs share.
func siteCRCs(site *webgen.Site) map[string]uint32 {
	crcs := make(map[string]uint32)
	for _, p := range site.Paths() {
		obj, _ := site.Object(p)
		crcs[p] = crc32.ChecksumIEEE(obj.Body)
		if d, ok := site.Deflated(p); ok {
			crcs[p+" (deflated)"] = crc32.ChecksumIEEE(d)
		}
		if b, ok := site.Burst(p); ok {
			crcs[p+" (burst)"] = crc32.ChecksumIEEE(b)
		}
	}
	return crcs
}

// changedBodies lists the paths whose CRC differs between two snapshots.
func changedBodies(before, after map[string]uint32) []string {
	var changed []string
	for p, crc := range after {
		if before[p] != crc {
			changed = append(changed, p)
		}
	}
	slices.Sort(changed)
	return changed
}

// TestSiteBodiesNeverWrittenByAnyScenario is core.TestSiteBodiesNeverWritten
// over the whole population: servers, the proxy and the burst encoder
// queue the site's bodies by reference, so no run of any declared or
// extra scenario, observed or plain, may write them. Every object body,
// deflated page and burst body must keep its CRC-32 after every run of
// the replay. Runs share the site on a pool, so a changed checksum does
// not say whose run wrote; when one changes, the pairs are re-run one at
// a time on a fresh site to name the first scenario that writes.
func TestSiteBodiesNeverWrittenByAnyScenario(t *testing.T) {
	r := replayed(t)
	if !slices.Contains(r.wrote, true) {
		return
	}
	site, err := webgen.Microscape(webgen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(site)
	for _, sc := range r.scenarios {
		_, _, wrote, err := rp.pair(sc)
		if err != nil {
			t.Fatal(err)
		}
		if wrote != nil {
			t.Fatalf("site-bodies: %s: wrote into %v", sc, wrote)
		}
	}
	t.Fatal("site-bodies: a body changed during the replay, but no scenario changes one when its runs go alone")
}

// TestObserversDoNotPerturbAnyScenario is core.TestTelemetryDoesNotPerturb
// over the whole population: retaining the packet trace, recording the
// timeline and attributing blame observe a run and never steer it, so
// every declared and extra scenario's observed run must report what its
// plain run reports: client result, server and proxy counters, packet
// statistics of both links, elapsed time.
func TestObserversDoNotPerturbAnyScenario(t *testing.T) {
	replayed(t).report(t, "non-perturbation")
}

func checkNonPerturbation(observed, plain *core.RunResult, f *finding) {
	if observed.Client != plain.Client {
		f.errorf("client result differs:\nobserved %+v\n   plain %+v", observed.Client, plain.Client)
	}
	if observed.Server != plain.Server {
		f.errorf("server stats differ:\nobserved %+v\n   plain %+v", observed.Server, plain.Server)
	}
	if observed.Stats != plain.Stats || observed.Elapsed != plain.Elapsed {
		f.errorf("packet statistics differ:\nobserved %+v in %v\n   plain %+v in %v",
			observed.Stats, observed.Elapsed, plain.Stats, plain.Elapsed)
	}
	if !samePointee(observed.Proxy, plain.Proxy) {
		f.errorf("proxy stats differ:\nobserved %+v\n   plain %+v", observed.Proxy, plain.Proxy)
	}
	if !samePointee(observed.Origin, plain.Origin) {
		f.errorf("origin-link statistics differ:\nobserved %+v\n   plain %+v", observed.Origin, plain.Origin)
	}
}

// samePointee reports whether a and b are both nil or point to equal
// values.
func samePointee[T comparable](a, b *T) bool {
	return a == nil && b == nil || a != nil && b != nil && *a == *b
}

// TestBusEventsInTimeOrder: every event is stamped with the clock when
// it is published, so every observed run's timeline lists its events in
// non-decreasing time, and a reader may walk it as a clock does.
func TestBusEventsInTimeOrder(t *testing.T) {
	replayed(t).report(t, "bus-order")
}

func checkBusOrder(observed, _ *core.RunResult, f *finding) {
	events := observed.Timeline.Events()
	for i := 1; i < len(events); i++ {
		if prev, ev := events[i-1], events[i]; ev.Time < prev.Time {
			f.errorf("event %d (%v at %v) precedes event %d (%v at %v)", i, ev.Kind, ev.Time, i-1, prev.Kind, prev.Time)
			return
		}
	}
}

// TestWedgedConnectionsServeNothing: a mux-stall fault wedges its
// connection for good, so once the fault fires on a connection no
// declared scenario's timeline may show the server queueing another
// response there. At least one scenario must fire the fault, or the
// test checks nothing.
func TestWedgedConnectionsServeNothing(t *testing.T) {
	wedged := 0
	for _, f := range replayed(t).report(t, "wedge") {
		if f.note != "" {
			wedged++
		}
	}
	if wedged == 0 {
		t.Fatal("wedge: no declared scenario fires a mux-stall fault")
	}
}

func checkWedge(observed, _ *core.RunResult, f *finding) {
	var wedged []obs.ConnID
	for _, ev := range observed.Timeline.Events() {
		switch {
		case ev.Kind == obs.KindFault && ev.Note == "mux-stall":
			wedged = append(wedged, ev.Conn)
			f.note = "wedged"
		case ev.Kind == obs.KindServerSend && slices.Contains(wedged, ev.Conn):
			f.errorf("conn %d queues a response for %s at %v after its mux-stall fault", ev.Conn, ev.Note, ev.Time)
		}
	}
}
