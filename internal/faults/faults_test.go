package faults

import (
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("Parse(%q).String() = %q", name, p.String())
		}
	}
	if p, err := Parse("Early-Close"); err != nil || p != EarlyClose {
		t.Errorf("case-insensitive parse: %v, %v", p, err)
	}
	_, err := Parse("bogus")
	if err == nil {
		t.Fatal("Parse(bogus) succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("parse error %q does not enumerate %q", err, name)
		}
	}
}

func TestScriptShape(t *testing.T) {
	if s := None.Script(1); s.Server != (ServerFault{}) || s.LossC2S != nil || s.LossS2C != nil {
		t.Error("None script is not empty")
	}
	if s := EarlyClose.Script(1); s.Server != (ServerFault{Kind: EarlyClose, At: 5}) {
		t.Errorf("EarlyClose script = %+v", s.Server)
	}
	if s := Stall.Script(1); s.Server.Kind != Stall || s.Server.At == 0 {
		t.Errorf("Stall script = %+v, want a stall ordinal", s.Server)
	}
	if s := BurstLoss.Script(1); s.Server != (ServerFault{}) {
		t.Errorf("BurstLoss script = %+v, want no server fault", s.Server)
	}
	if s := BurstLoss.Script(1); s.LossC2S == nil || s.LossS2C == nil {
		t.Error("BurstLoss script missing loss models")
	}
	if s := Blackhole.Script(1); s.LossC2S != nil || s.LossS2C == nil {
		t.Error("Blackhole must blackhole only the server→client direction")
	}
}

// TestScriptDeterministic checks that two scripts from the same seed
// produce identical burst-loss drop schedules (fresh state per script).
func TestScriptDeterministic(t *testing.T) {
	a := BurstLoss.Script(99)
	b := BurstLoss.Script(99)
	for i := 0; i < 3000; i++ {
		if a.LossS2C(i, 1500) != b.LossS2C(i, 1500) {
			t.Fatalf("schedules diverge at packet %d", i)
		}
	}
}

func TestPolicyBackoff(t *testing.T) {
	want := []time.Duration{1: 200e6, 400e6, 800e6, 1600e6, 3200e6, 3200e6, 3200e6, 3200e6}
	for n := 1; n < len(want); n++ {
		if got := Backoff(n); got != want[n] {
			t.Errorf("Backoff(%d) = %v, want %v", n, got, want[n])
		}
	}
	if got := Backoff(1000); got != 3200e6 {
		t.Errorf("Backoff(1000) = %v, want the 3.2s cap", got)
	}
}

func TestPolicyAllow(t *testing.T) {
	for n := 0; n < RetryBudget; n++ {
		if !Allow(n) {
			t.Fatalf("Allow(%d) = false, want every retry below the budget of %d", n, RetryBudget)
		}
	}
	if Allow(RetryBudget) || Allow(RetryBudget+1) {
		t.Errorf("Allow(%d) = true, want the budget exhausted", RetryBudget)
	}
}
