package core_test

import (
	"io"
	"testing"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/report"
)

// The exporters and the analyzer on one observed page load each: a
// first-time HTTP/1.0 fetch (43 connections, the most events) and the
// same page over one multiplexed connection.
var exportCells = []string{"apache/http10/WAN/first", "apache/mux/WAN/first"}

// benchObserved runs fn against each cell's fully observed run.
func benchObserved(b *testing.B, fn func(*core.RunResult)) {
	site, err := core.DefaultSite()
	if err != nil {
		b.Fatal(err)
	}
	for _, cell := range exportCells {
		sc, err := core.ParseScenario(cell)
		if err != nil {
			b.Fatal(err)
		}
		sc.Seed = 1
		res, err := core.Run(sc, site, core.WithCapture(), core.WithTimeline(), core.WithBlame())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cell, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(res)
			}
		})
	}
}

func BenchmarkWritePerfettoPage(b *testing.B) {
	benchObserved(b, func(res *core.RunResult) {
		if err := res.Timeline.WritePerfettoPath(io.Discard, res.Blame.PerfettoPath()); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkWritePcapPage(b *testing.B) {
	benchObserved(b, func(res *core.RunResult) {
		if err := res.Capture.WritePcap(io.Discard); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkWaterfallPage(b *testing.B) {
	benchObserved(b, func(res *core.RunResult) {
		report.WriteWaterfall(io.Discard, res.Timeline, res.Blame)
	})
}

// BenchmarkFinishPage replays the bus through a fresh collector, which
// is what an armed run pays for attribution.
func BenchmarkFinishPage(b *testing.B) {
	benchObserved(b, func(res *core.RunResult) {
		if causality.Analyze(res.Timeline) == nil {
			b.Fatal("no analysis")
		}
	})
}
