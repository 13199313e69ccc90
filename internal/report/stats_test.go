package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

func TestMeanCI(t *testing.T) {
	if got := MeanCI(stats.Summary{Mean: 3.14159}, 2); got != "3.14" {
		t.Errorf("single sample: %q", got)
	}
	if got := MeanCI(stats.Summary{Mean: 3.14159, CI95: 0.256}, 2); got != "3.14 ±0.26" {
		t.Errorf("with CI: %q", got)
	}
}

// TestVarianceRenderer pins how a mean ± CI cell prints in a table and
// what it marshals to, so format drift is deliberate rather than an
// accident.
func TestVarianceRenderer(t *testing.T) {
	type cell struct {
		label        string
		secs, pkts   stats.Summary
		p50Ms, maxMs float64
	}
	s := Spec[cell]{
		Title: "Seed-variance experiment",
		Width: 60,
		Cols: []Col[cell]{
			{Name: "mode", Format: "%-20s", Value: func(c cell) any { return c.label }},
			{Head: "Sec", Format: "%15s", Value: func(c cell) any { return CI{c.secs, 2} }},
			{Head: "Pa", Format: "%15s", Value: func(c cell) any { return CI{c.pkts, 1} }},
			{Format: "|"},
			{Head: "p50", Format: "%8.1f", Value: func(c cell) any { return c.p50Ms }},
			{Head: "max", Format: "%9.1f", Value: func(c cell) any { return c.maxMs }},
		},
	}
	tab := Tabulate(s, []cell{
		{"HTTP/1.1 pipelined", stats.Summary{N: 8, Mean: 12.345, CI95: 0.678}, stats.Summary{N: 8, Mean: 234.0}, 101.5, 505.9},
		{"HTTP/1.0", stats.Summary{N: 8, Mean: 80.96, CI95: 25.08}, stats.Summary{N: 8, Mean: 861.2, CI95: 185.8}, 17448.3, 68734.9},
	})
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"Seed-variance experiment",
		"    12.35 ±0.68", // mean ± CI at two decimals, right-aligned in its column
		"          234.0", // zero-width CI renders bare mean
		"861.2 ±185.8",    // packets with CI at one decimal
		"101.5",
		"68734.9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("variance table missing %q:\n%s", want, out)
		}
	}
	// Rendering the same table twice is byte-identical.
	var again bytes.Buffer
	tab.Render(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("variance renderer not deterministic")
	}
	js, err := json.Marshal(tab.Value("Sec", "HTTP/1.0"))
	if err != nil || string(js) != `{"n":8,"mean":80.96,"stddev":0,"ci95":25.08}` {
		t.Errorf("a CI cell marshals as %s, %v; want its Summary", js, err)
	}
}

func TestCellsRenderer(t *testing.T) {
	cells := []exp.CellStats{
		{Experiment: "variance", Scenario: "Apache PPP HTTP/1.0 first", N: 8,
			Elapsed: stats.Summary{N: 8, Mean: 72.4, CI95: 1.55},
			Packets: stats.Summary{N: 8, Mean: 700.1, CI95: 3.2},
			Dist: map[string]float64{
				"lat_total_ms_p50": 1500.5,
				"lat_total_ms_p90": 2000.1,
				"lat_total_ms_p99": 2500.9,
			}},
		{Experiment: "3", Scenario: "Apache LAN HTTP/1.0 revalidate", N: 1,
			Elapsed: stats.Summary{N: 1, Mean: 0.35},
			Packets: stats.Summary{N: 1, Mean: 120}},
	}
	var buf bytes.Buffer
	Cells(&buf, cells)
	out := buf.String()
	for _, want := range []string{
		"Per-cell statistics",
		"72.40 ±1.55",
		"1500.5",
		"2500.9",
		"0.35",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cells table missing %q:\n%s", want, out)
		}
	}
	// A cell without latency metrics renders empty quantile cells, not
	// zeros: its row ends with the packets column followed by blanks.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "revalidate") && strings.TrimRight(line, " ") != strings.TrimRight(line[:strings.Index(line, "120.0")+5], " ") {
			t.Errorf("dist-free cell rendered non-empty quantile cells: %q", line)
		}
	}
}
