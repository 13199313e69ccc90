package httpclient_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpclient"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCountedBodiesMeasureLikeKeptBodies replays every scenario any
// registered experiment executes twice — with the robot keeping every
// response body, as it used to, and with it counting the bodies nothing
// reads — and demands the same measurements: the whole client result
// (PayloadBytes, InflatedBytes, WastedBytes, PushWastedBytes and every
// counter beside them), every request span (SpanDone's status and
// size), and the packet statistics, which would move if a body's length
// ever steered the fetch.
func TestCountedBodiesMeasureLikeKeptBodies(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := experiments.Scenarios()
	// measure runs every scenario on a pool with the robot keeping bodies
	// or not, and keeps what the comparison reads.
	type measured struct {
		client httpclient.Result
		stats  trace.Stats
		spans  []obs.SpanInfo
	}
	measure := func(keep bool) []measured {
		httpclient.RetainBodies(keep)
		out := make([]measured, len(scenarios))
		err := sim.ForEach(runtime.GOMAXPROCS(0), len(scenarios), func(i int) error {
			res, err := core.Run(scenarios[i], site, core.WithTimeline())
			if err != nil {
				return fmt.Errorf("%s (bodies kept: %v): %v", scenarios[i], keep, err)
			}
			out[i] = measured{res.Client, res.Stats, res.Timeline.Spans()}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	defer httpclient.RetainBodies(false)
	kept, counted := measure(true), measure(false)
	for i, sc := range scenarios {
		if kept[i].client != counted[i].client {
			t.Errorf("%s: client result differs:\n   kept %+v\ncounted %+v", sc, kept[i].client, counted[i].client)
		}
		if kept[i].stats != counted[i].stats {
			t.Errorf("%s: packet statistics differ:\n   kept %+v\ncounted %+v", sc, kept[i].stats, counted[i].stats)
		}
		if !reflect.DeepEqual(kept[i].spans, counted[i].spans) {
			t.Errorf("%s: request spans differ between kept and counted bodies", sc)
		}
	}
}
