package causality

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// referenceBlameWindow is the sweep blameWindow replaced, kept as its
// oracle: it partitions the window [q, d) by sweeping its elementary
// segments: each segment goes to the highest-priority cause interval
// covering it, and segments no cause claims go to head-of-line
// queueing before the request hit the wire at w, wire transmission
// after. Segment lengths tile the window, so the result sums to d - q
// exactly — the conservation invariant.
func referenceBlameWindow(tracks []*connTrack, q, w, d sim.Time) Blame {
	var bl Blame
	if d <= q {
		return bl
	}
	// Clip candidate intervals to the window and collect boundaries.
	var ivs []interval
	points := make([]sim.Time, 0, 16)
	points = append(points, q, d)
	if w != obs.NoTime && w > q && w < d {
		points = append(points, w)
	}
	for _, t := range tracks {
		for _, iv := range t.ivs {
			s, e := iv.start, iv.end
			if s < q {
				s = q
			}
			if e > d {
				e = d
			}
			if e <= s {
				continue
			}
			ivs = append(ivs, interval{iv.cat, s, e})
			points = append(points, s, e)
		}
	}
	sortTimes(points)
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		if b <= a {
			continue
		}
		best := catNone
		for _, iv := range ivs {
			if iv.start <= a && iv.end >= b && (best == catNone || iv.cat < best) {
				best = iv.cat
			}
		}
		if best == catNone {
			if w == obs.NoTime || a < w {
				best = CatHOL
			} else {
				best = CatWire
			}
		}
		bl[best] += b.Sub(a)
	}
	return bl
}

// sortTimes is an insertion sort: boundary sets are small and almost
// sorted, and avoiding sort.Slice keeps the hot path allocation-free.
func sortTimes(ts []sim.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// randomTrack draws n intervals over [0, span): a mix of short, long,
// zero-length, abutting, nested and still-open (farFuture) ones, in no
// particular order, as Observe appends them.
func randomTrack(rng *rand.Rand, n int, span int64) *connTrack {
	t := &connTrack{}
	var prevEnd sim.Time
	for i := 0; i < n; i++ {
		start := sim.Time(rng.Int63n(span))
		end := start + sim.Time(rng.Int63n(span/4+1))
		switch rng.Intn(8) {
		case 0:
			end = start // zero length
		case 1:
			end = farFuture // never closed
		case 2:
			start, end = prevEnd, prevEnd+sim.Time(rng.Int63n(50)) // abuts the previous one
		case 3:
			if len(t.ivs) > 0 { // nested in an earlier one
				o := t.ivs[rng.Intn(len(t.ivs))]
				if o.end > o.start+2 && o.end != farFuture {
					start = o.start + 1
					end = o.end - 1
				}
			}
		}
		prevEnd = end
		t.ivs = append(t.ivs, interval{Category(rng.Intn(int(NumCategories))), start, end})
	}
	return t
}

// TestBlameWindowMatchesReference compares the indexed boundary sweep
// with the quadratic sweep it replaced on random tracks and windows,
// including a request-written instant that is missing, before the
// window, inside it and after it.
func TestBlameWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		const span = 1000
		tracks := []*connTrack{randomTrack(rng, rng.Intn(40), span)}
		if rng.Intn(2) == 0 {
			tracks = append(tracks, randomTrack(rng, rng.Intn(40), span))
		}
		var peer *connTrack
		if len(tracks) == 2 {
			peer = tracks[1]
		}
		for win := 0; win < 20; win++ {
			q := sim.Time(rng.Int63n(span))
			d := q + sim.Time(rng.Int63n(span/2)) - 10 // now and then empty or inverted
			for _, w := range []sim.Time{obs.NoTime, q - 5, q, q + (d-q)/2, d, d + 5} {
				got := blameWindow(tracks[0], peer, q, w, d)
				want := referenceBlameWindow(tracks, q, w, d)
				if got != want {
					t.Fatalf("round %d window [%d,%d) w=%d: blame %v, reference %v\ntracks %+v",
						round, q, d, w, got, want, tracks)
				}
				if d > q && got.Sum() != d.Sub(q) {
					t.Fatalf("window [%d,%d): sum %v != length", q, d, got.Sum())
				}
			}
		}
		// An interval observed after the index was built must be seen.
		tracks[0].ivs = append(tracks[0].ivs, interval{CatRTO, 0, span})
		if got, want := blameWindow(tracks[0], peer, 0, obs.NoTime, span), referenceBlameWindow(tracks, 0, obs.NoTime, span); got != want {
			t.Fatalf("round %d after append: blame %v, reference %v", round, got, want)
		}
	}
}

// TestBlameWindowLinear pins what a window costs: a binary search, then
// only the edges strictly inside it, however many intervals the
// connection has. On a track of n abutting intervals a window two
// intervals wide sweeps four edges at n = 100 and at n = 10000, where
// the sweep this replaced tested every interval against every segment.
func TestBlameWindowLinear(t *testing.T) {
	for _, n := range []int{100, 200, 10000} {
		tr := &connTrack{}
		for i := 0; i < n; i++ {
			tr.ivs = append(tr.ivs, interval{CatServer, ms(int64(10 * i)), ms(int64(10*i + 10))})
		}
		for i := 0; i+3 <= n; i += n / 50 {
			q, d := ms(int64(10*i+5)), ms(int64(10*i+25))
			var live liveCounts
			rest := tr.enter(q, &live)
			inside := 0
			for inside < len(rest) && rest[inside].at < d {
				inside++
			}
			if inside != 4 || live[CatServer] != 1 {
				t.Fatalf("n=%d window [%v,%v): %d edges inside and %d open at the start, want 4 and 1",
					n, q, d, inside, live[CatServer])
			}
			if bl := blameWindow(tr, nil, q, obs.NoTime, d); bl[CatServer] != d.Sub(q) {
				t.Fatalf("n=%d window [%v,%v): server blame %v, want the whole window", n, q, d, bl[CatServer])
			}
		}
	}
}
