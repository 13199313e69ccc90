package httpclient_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpclient"
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
	defer httpclient.RetainBodies(false)
	for _, sc := range experiments.Scenarios() {
		var runs [2]*core.RunResult
		for i, keep := range []bool{true, false} {
			httpclient.RetainBodies(keep)
			if runs[i], err = core.Run(sc, site, core.WithTimeline()); err != nil {
				t.Fatalf("%s (bodies kept: %v): %v", sc, keep, err)
			}
		}
		kept, counted := runs[0], runs[1]
		if kept.Client != counted.Client {
			t.Errorf("%s: client result differs:\n   kept %+v\ncounted %+v", sc, kept.Client, counted.Client)
		}
		if kept.Stats != counted.Stats {
			t.Errorf("%s: packet statistics differ:\n   kept %+v\ncounted %+v", sc, kept.Stats, counted.Stats)
		}
		if !reflect.DeepEqual(kept.Timeline.Spans(), counted.Timeline.Spans()) {
			t.Errorf("%s: request spans differ between kept and counted bodies", sc)
		}
	}
}
