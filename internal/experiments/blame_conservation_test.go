package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestBlameConservation is the attribution layer's global property
// test: every scenario any registered experiment executes — every
// protocol mode, environment, topology, fault profile, and scheduler
// knob — is replayed with attribution enabled, and for every completed
// request the category sum must equal its elapsed time exactly. The
// critical-path partition must tile its chain the same way. Integer
// nanoseconds, no epsilon. The walk must reach the root document on
// every scenario, leaving no path empty.
func TestBlameConservation(t *testing.T) {
	r := replayed(t)
	var short []string
	for i, f := range r.report(t, "blame-conservation") {
		if f.note != "" {
			short = append(short, r.scenarios[i].String())
		}
	}
	// The path still stops short of the page where blame has no category
	// for the time: client work after the last response, fault tails,
	// burst revalidation. Those cases are few and must not grow.
	if len(short) > maxShortPaths {
		t.Errorf("%d scenarios' critical paths cover under 90%% of their elapsed time, want at most %d: %v",
			len(short), maxShortPaths, short)
	}
}

// checkBlame checks the observed run's attribution, and notes a critical
// path that covers under 90 % of the page's elapsed time.
func checkBlame(observed, _ *core.RunResult, f *finding) {
	a := observed.Blame
	if a == nil {
		f.errorf("no attribution")
		return
	}
	for _, rb := range a.Requests {
		if rb.B.Sum() != rb.Elapsed {
			f.errorf("span %d (%s): blame sum %v != elapsed %v", rb.Span, rb.Path, rb.B.Sum(), rb.Elapsed)
		}
	}
	if a.Total.Sum() != a.Elapsed {
		f.errorf("total blame %v != summed elapsed %v", a.Total.Sum(), a.Elapsed)
	}
	if a.CriticalBlame.Sum() != a.CriticalPath {
		f.errorf("critical blame %v != critical path %v", a.CriticalBlame.Sum(), a.CriticalPath)
	}
	if a.PathErr != nil {
		f.errorf("%v", a.PathErr)
	}
	if len(a.Chain) == 0 {
		f.errorf("empty critical path")
	}
	if float64(a.CriticalPath) < 0.9*float64(observed.Elapsed) {
		f.note = "short"
	}
}

// maxShortPaths bounds the scenarios whose critical path covers under
// 90 % of the page's elapsed time.
const maxShortPaths = 16
