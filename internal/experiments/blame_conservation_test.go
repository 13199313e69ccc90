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
// nanoseconds, no epsilon.
func TestBlameConservation(t *testing.T) {
	s := session(t, 1)
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
	}
}
