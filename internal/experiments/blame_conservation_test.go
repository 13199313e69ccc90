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
	s := session(t, 1)
	var short []string
	for _, sc := range Scenarios() {
		res, err := core.Run(sc, s.Site, core.WithBlame())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		a := res.Blame
		if a == nil {
			t.Fatalf("%s: no attribution", sc)
		}
		for _, rb := range a.Requests {
			if rb.B.Sum() != rb.Elapsed {
				t.Errorf("%s span %d (%s): blame sum %v != elapsed %v",
					sc, rb.Span, rb.Path, rb.B.Sum(), rb.Elapsed)
			}
		}
		if a.Total.Sum() != a.Elapsed {
			t.Errorf("%s: total blame %v != summed elapsed %v", sc, a.Total.Sum(), a.Elapsed)
		}
		if a.CriticalBlame.Sum() != a.CriticalPath {
			t.Errorf("%s: critical blame %v != critical path %v", sc, a.CriticalBlame.Sum(), a.CriticalPath)
		}
		if a.PathErr != nil {
			t.Errorf("%s: %v", sc, a.PathErr)
		}
		if len(a.Chain) == 0 {
			t.Errorf("%s: empty critical path", sc)
		}
		if float64(a.CriticalPath) < 0.9*float64(res.Elapsed) {
			short = append(short, sc.String())
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

// maxShortPaths bounds the scenarios whose critical path covers under
// 90 % of the page's elapsed time.
const maxShortPaths = 16
