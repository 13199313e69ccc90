package causality

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n * 1e6) }

// TestBlameWindowPartition pins the sweep on a hand-checkable layout:
// overlaps resolve by priority order, uncovered time splits into HOL
// before the write instant and wire after, and the sum is exact.
func TestBlameWindowPartition(t *testing.T) {
	tr := &connTrack{ivs: []interval{
		{CatConnect, ms(0), ms(10)},
		{CatServer, ms(5), ms(20)}, // loses [5,10) to the connect interval
		{CatNagle, ms(30), ms(40)},
	}}
	bl := blameWindow(tr, nil, ms(0), ms(25), ms(50))
	var want Blame
	want[CatConnect] = ms(10).Sub(ms(0))
	want[CatServer] = ms(20).Sub(ms(10))
	want[CatHOL] = ms(25).Sub(ms(20))
	want[CatWire] = ms(30).Sub(ms(25)) + ms(50).Sub(ms(40))
	want[CatNagle] = ms(40).Sub(ms(30))
	if bl != want {
		t.Fatalf("blame = %v, want %v", bl, want)
	}
	if bl.Sum() != ms(50).Sub(ms(0)) {
		t.Fatalf("sum %v != window length", bl.Sum())
	}
}

// TestBlameWindowClipsOpenIntervals: an interval capped at farFuture
// (never closed during the run) is clipped to the window, and an
// interval outside the window contributes nothing.
func TestBlameWindowClipsOpenIntervals(t *testing.T) {
	tr := &connTrack{ivs: []interval{
		{CatSlowStart, ms(10), farFuture},
		{CatRTO, ms(100), ms(200)}, // beyond the window
	}}
	bl := blameWindow(tr, nil, ms(0), ms(5), ms(50))
	if bl[CatSlowStart] != ms(50).Sub(ms(10)) {
		t.Fatalf("slowstart = %v, want clipped 40ms", bl[CatSlowStart])
	}
	if bl[CatRTO] != 0 {
		t.Fatalf("rto = %v, want 0 (interval outside window)", bl[CatRTO])
	}
	if bl.Sum() != ms(50).Sub(ms(0)) {
		t.Fatalf("sum %v != window length", bl.Sum())
	}
}

// TestDiffOrder: the diff sorts by absolute delta, descending, with
// category order breaking ties.
func TestDiffOrder(t *testing.T) {
	var a, b Analysis
	a.Total[CatConnect], b.Total[CatConnect] = 100, 10 // |delta| 90
	a.Total[CatWire], b.Total[CatWire] = 5, 10         // |delta| 5
	a.Total[CatServer], b.Total[CatServer] = 7, 7      // |delta| 0
	rows := Diff(&a, &b)
	if len(rows) != int(NumCategories) {
		t.Fatalf("%d rows, want %d", len(rows), NumCategories)
	}
	if rows[0].Cat != CatConnect || rows[0].Delta != -90 {
		t.Fatalf("rows[0] = %+v, want connect delta -90", rows[0])
	}
	if rows[1].Cat != CatWire || rows[1].Delta != 5 {
		t.Fatalf("rows[1] = %+v, want wire delta 5", rows[1])
	}
	for i := 1; i < len(rows); i++ {
		if abs(rows[i].Delta) > abs(rows[i-1].Delta) {
			t.Fatalf("rows not sorted by |delta|: %+v before %+v", rows[i-1], rows[i])
		}
	}
}

// TestObserveStallLifecycle: a stall without a resume is capped by
// close(), and an unknown stall cause maps to no category (residual).
func TestObserveStallLifecycle(t *testing.T) {
	c := NewCollector()
	c.Observe(obs.Event{Kind: obs.KindSendStall, Conn: 1, Time: ms(10), Note: "nagle"})
	c.Observe(obs.Event{Kind: obs.KindSendResume, Conn: 1, Time: ms(15)})
	c.Observe(obs.Event{Kind: obs.KindSendStall, Conn: 1, Time: ms(20), Note: "rwnd"})
	c.Observe(obs.Event{Kind: obs.KindSendResume, Conn: 1, Time: ms(25)})
	c.Observe(obs.Event{Kind: obs.KindSendStall, Conn: 1, Time: ms(30), Note: "cwnd"})
	tr := c.tracks[1]
	tr.close()
	if len(tr.ivs) != 2 {
		t.Fatalf("%d intervals, want 2 (rwnd maps to none): %+v", len(tr.ivs), tr.ivs)
	}
	if tr.ivs[0] != (interval{CatNagle, ms(10), ms(15)}) {
		t.Fatalf("ivs[0] = %+v", tr.ivs[0])
	}
	if tr.ivs[1] != (interval{CatSlowStart, ms(30), farFuture}) {
		t.Fatalf("ivs[1] = %+v (unresumed stall must cap at farFuture)", tr.ivs[1])
	}
}

// FuzzBlameConservation hammers blameWindow with pseudo-random interval
// soups and window boundaries: whatever the overlap structure, the
// category sum must equal the window length exactly.
func FuzzBlameConservation(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(1e9), int64(5e8), uint8(6))
	f.Add(uint64(42), int64(1e6), int64(2e6), int64(-1), uint8(12))
	f.Add(uint64(7), int64(3e9), int64(3e9), int64(3e9), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, qn, dn, wn int64, n uint8) {
		const horizon = int64(1) << 40
		if qn < 0 || dn < 0 || qn > horizon || dn > horizon {
			t.Skip("window outside the simulated horizon")
		}
		q, d := sim.Time(qn), sim.Time(dn)
		w := sim.Time(wn)
		if wn < 0 {
			w = obs.NoTime
		}
		rng := seed | 1
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int64(rng >> 11) // always non-negative
		}
		tr := &connTrack{}
		for i := 0; i < int(n%32); i++ {
			s := sim.Time(next() % horizon)
			e := s.Add(sim.Duration(next() % (horizon >> 10)))
			if next()%8 == 0 {
				e = farFuture // open interval, as close() leaves them
			}
			tr.ivs = append(tr.ivs, interval{Category(next() % int64(NumCategories)), s, e})
		}
		bl := blameWindow(tr, nil, q, w, d)
		var want sim.Duration
		if d > q {
			want = d.Sub(q)
		}
		if got := bl.Sum(); got != want {
			t.Fatalf("blame sum %d != window %d (q=%d w=%d d=%d ivs=%+v)", got, want, q, w, d, tr.ivs)
		}
		for c := Category(0); c < NumCategories; c++ {
			if bl[c] < 0 {
				t.Fatalf("negative blame %s = %d", c, bl[c])
			}
		}
	})
}
