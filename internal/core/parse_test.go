package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestParseScenarioNagleIsTheNagleCell holds the "nagle" scenario part to
// the nagle experiment's own cell: parsed and run at that cell's seed,
// the spec measures what the experiment's "Serial client, server Nagle"
// row measures, and differs from the same spec with Nagle left off.
func TestParseScenarioNagleIsTheNagleCell(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var want core.Scenario
	found := false
	for _, g := range experiments.Grids("nagle") {
		for _, row := range g.Rows {
			if len(row.Labels) > 0 && row.Labels[0] == "Serial client, server Nagle" {
				want, found = (core.Sweep{Runs: 1, Seeds: 1}).Repetition(g, row.Cells[0], 0), true
			}
		}
	}
	if !found {
		t.Fatal(`nagle experiment declares no "Serial client, server Nagle" row`)
	}
	run := func(spec string) *core.RunResult {
		t.Helper()
		sc, err := core.ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = want.Seed
		res, err := core.Run(sc, site)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cellRes, err := core.Run(want, site)
	if err != nil {
		t.Fatal(err)
	}
	got := run("jigsaw/serial/WAN/first/nagle")
	if got.Stats.Packets != cellRes.Stats.Packets || got.Stats.PayloadBytes != cellRes.Stats.PayloadBytes || got.Elapsed != cellRes.Elapsed {
		t.Errorf("nagle spec at seed %d: %d packets, %d bytes, %v; the experiment's cell: %d packets, %d bytes, %v",
			want.Seed, got.Stats.Packets, got.Stats.PayloadBytes, got.Elapsed,
			cellRes.Stats.Packets, cellRes.Stats.PayloadBytes, cellRes.Elapsed)
	}
	if tuned := run("jigsaw/serial/WAN/first"); tuned.Elapsed == got.Elapsed {
		t.Errorf("the nagle part changed nothing: both runs took %v", got.Elapsed)
	}
}
