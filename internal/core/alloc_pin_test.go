package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestRunAllocationBudget pins what one core.Run allocates, so that the
// allocation diet of the data paths cannot silently regress: a body goes
// to the wire by reference, with only the bytes of a segment that
// straddles a head and a body copied (into the network's send arena), and,
// for a body nothing reads, is not copied at all on the way in; heads are
// parsed in place; the packet trace is tallied, not retained; the page's
// links come from the site's link index, cached for revalidation and
// replayed, not re-parsed, on a first-time fetch; connections are their
// own TCP handlers, CPU work is scheduled without a closure, and each
// connection reuses its request or response, its queues and its parser's
// result slice. Budgets are the measured cost (in the comment) plus about
// a fifth. Scanning the page on every first-time fetch cost 678 KB / 1218
// allocations and 1083 KB / 2591 on the two first-time cells; copying
// every body into the send buffer cost 636 KB / 876, 174 KB / 763,
// 1045 KB / 2232, 409 KB / 1628 and 1476 KB / 2192 on the five cells;
// a closure per connection and per request, and a fresh message, result
// slice and queue array per request, cost 217 KB / 875, 143 KB / 745,
// 702 KB / 2229, 278 KB / 1547 and 573 KB / 2124. HTTP/1.0 opens 43
// connections, so its cell catches a cost per connection.
func TestRunAllocationBudget(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		name      string
		kb, count float64
	}{
		{"apache/pipelined/WAN/first", 215, 585},            // 180 KB, 488 allocations
		{"apache/pipelined/WAN/reval", 140, 535},            // 117 KB, 446
		{"apache/mux/WAN/first", 810, 2365},                 // 674 KB, 1971
		{"apache/http10/WAN/first", 310, 1035},              // 256 KB, 862
		{"apache/pipelined/WAN/first/proxy:WAN", 640, 1905}, // 535 KB, 1587
	} {
		sc, err := core.ParseScenario(cell.name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed, sc.Jitter = 1, true
		run := func() {
			var m exp.Metrics
			if _, err := core.Run(sc, site, core.WithMetrics(&m)); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 10
		count := testing.AllocsPerRun(runs, run) // also warms the site's once-per-site artifacts
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.0f KB, %.0f allocations per run", cell.name, kb, count)
		if kb > cell.kb || count > cell.count {
			t.Errorf("%s allocates %.0f KB in %.0f allocations per run, budget %.0f KB in %.0f",
				cell.name, kb, count, cell.kb, cell.count)
		}
	}
}
