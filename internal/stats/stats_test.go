package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestBucketRoundTrip pins the bucket geometry: bucketLow inverts
// bucketIndex, buckets are contiguous and monotone, and relative width
// is bounded by 2^-histSubBits.
func TestBucketRoundTrip(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000,
		1 << 20, 1<<20 + 12345, 1 << 40, math.MaxInt64 / 2} {
		i := bucketIndex(v)
		if low, high := bucketLow(i), bucketLow(i+1); v < low || v >= high {
			t.Fatalf("v=%d: bucket %d covers [%d,%d)", v, i, low, high)
		}
		if i < prev {
			t.Fatalf("v=%d: bucket index %d not monotone (prev %d)", v, i, prev)
		}
		prev = i
	}
	for i := 0; i <= bucketIndex(math.MaxInt64); i++ {
		low, high := bucketLow(i), bucketLow(i+1)
		if high <= low {
			t.Fatalf("bucket %d empty: [%d,%d)", i, low, high)
		}
		if low >= 2*histSubCount {
			if w := high - low; float64(w)/float64(low) > 1.0/histSubCount+1e-12 {
				t.Fatalf("bucket %d too wide: [%d,%d)", i, low, high)
			}
		}
	}
}

// TestQuantileMatchesExactRanks is the property test of the issue:
// histogram quantiles vs exact sorted-slice nearest-rank quantiles on
// random inputs, across several distribution shapes, within the bucket
// width bound.
func TestQuantileMatchesExactRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := map[string]func() int64{
		"small-exact": func() int64 { return rng.Int63n(64) },
		"uniform":     func() int64 { return rng.Int63n(5_000_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 2e8) },
		"heavy-tail": func() int64 {
			if rng.Intn(100) == 0 {
				return 1_000_000_000 + rng.Int63n(60_000_000_000)
			}
			return rng.Int63n(50_000_000)
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 17, 500, 4096} {
			var h Histogram
			values := make([]int64, n)
			for i := range values {
				values[i] = gen()
				h.Observe(values[i])
			}
			sorted := append([]int64(nil), values...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1} {
				exact := sortedQuantile(sorted, q)
				got := h.Quantile(q)
				// The exact rank's value and the reported midpoint share a
				// bucket, so the error is below one bucket width.
				tol := exact / histSubCount
				if d := got - exact; d > tol || d < -tol {
					t.Fatalf("%s n=%d q=%g: hist %d vs exact %d (tol %d)",
						name, n, q, got, exact, tol)
				}
			}
			if h.Quantile(1) != sorted[n-1] || h.Max() != sorted[n-1] {
				t.Fatalf("%s n=%d: max %d/%d vs exact %d", name, n, h.Quantile(1), h.Max(), sorted[n-1])
			}
			if h.Min() != sorted[0] {
				t.Fatalf("%s n=%d: min %d vs exact %d", name, n, h.Min(), sorted[0])
			}
		}
	}
}

// TestHistogramSmallValuesExact: values below 64 land in width-1
// buckets, so every quantile is exact.
// exactQuantile computes the nearest-rank quantile of values directly,
// the reference the histogram's bucketed answer approximates.
func exactQuantile(values []int64, q float64) int64 {
	s := append([]int64(nil), values...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return sortedQuantile(s, q)
}

func TestHistogramSmallValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var values []int64
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(64)
		values = append(values, v)
		h.Observe(v)
	}
	for q := 0.05; q <= 1.0; q += 0.05 {
		if got, want := h.Quantile(q), exactQuantile(values, q); got != want {
			t.Fatalf("q=%g: %d != exact %d", q, got, want)
		}
	}
}

func TestHistogramMergeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Histogram
	shards := make([]Histogram, 7)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e7)
		whole.Observe(v)
		shards[rng.Intn(len(shards))].Observe(v)
	}
	var merged Histogram
	// Merge in a scrambled order; the result must be identical.
	for _, i := range rng.Perm(len(shards)) {
		merged.Merge(&shards[i])
	}
	if merged.Count() != whole.Count() || merged.sum != whole.sum ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary differs: %+v vs %+v", merged, whole)
	}
	for i := range whole.counts {
		if merged.counts[i] != whole.counts[i] {
			t.Fatalf("bucket %d: %d vs %d", i, merged.counts[i], whole.counts[i])
		}
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Merge(nil)
	h.Merge(&Histogram{})
	if h.Count() != 0 {
		t.Fatal("merging empties changed the count")
	}
	h.Observe(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation not clamped: min=%d n=%d", h.Min(), h.Count())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 1000)
	var sum float64
	var w Welford
	for i := range values {
		values[i] = rng.NormFloat64()*3 + 10
		sum += values[i]
		w.Observe(values[i])
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	variance := ss / float64(len(values)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %g vs naive %g", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Fatalf("variance %g vs naive %g", w.Variance(), variance)
	}
	// Merging shards must agree with the single pass.
	var a, b Welford
	for i, v := range values {
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if math.Abs(a.Mean()-mean) > 1e-9 || math.Abs(a.Variance()-variance) > 1e-9 {
		t.Fatalf("merged %g/%g vs naive %g/%g", a.Mean(), a.Variance(), mean, variance)
	}
}

func TestTCrit95(t *testing.T) {
	for _, tc := range []struct {
		df   int
		want float64
	}{{1, 12.706}, {4, 2.776}, {10, 2.228}, {30, 2.042}, {35, 2.042}, {45, 2.021}, {1000, 1.960}} {
		if got := TCrit95(tc.df); got != tc.want {
			t.Errorf("TCrit95(%d) = %g, want %g", tc.df, got, tc.want)
		}
	}
	if !math.IsInf(TCrit95(0), 1) {
		t.Error("TCrit95(0) not +Inf")
	}
	for df := 2; df < 200; df++ {
		if TCrit95(df) > TCrit95(df-1) {
			t.Fatalf("TCrit95 not monotone at df=%d", df)
		}
	}
}

func TestSummarize(t *testing.T) {
	// Known small set: mean 10, stddev 1, t(4)=2.776 → CI 2.776/√5.
	vals := []float64{9, 9.5, 10, 10.5, 11}
	s := Summarize(vals)
	if s.N != 5 || math.Abs(s.Mean-10) > 1e-12 {
		t.Fatalf("summary %+v", s)
	}
	wantCI := 2.776 * s.Stddev / math.Sqrt(5)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI %g, want %g", s.CI95, wantCI)
	}
	if one := Summarize([]float64{7}); one.CI95 != 0 || one.Stddev != 0 {
		t.Fatalf("single-sample summary has spread: %+v", one)
	}
}

func TestLatencySetDistMap(t *testing.T) {
	var ls LatencySet
	if ls.DistMap() != nil {
		t.Fatal("empty set produced a dist map")
	}
	for i := int64(1); i <= 100; i++ {
		ls.Observe(i*1e6, 2*i*1e6, 3*i*1e6)
	}
	m := ls.DistMap()
	if len(m) != 12 {
		t.Fatalf("dist map has %d keys, want 12", len(m))
	}
	for _, k := range []string{"lat_queue_ms_p50", "lat_ttfb_ms_p99", "lat_total_ms_max"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("dist map missing %s (have %v)", k, m)
		}
	}
	if got := m["lat_total_ms_max"]; got != 300 {
		t.Fatalf("total max %g ms, want 300", got)
	}
	if p50 := m["lat_queue_ms_p50"]; math.Abs(p50-50) > 50.0/histSubCount {
		t.Fatalf("queue p50 %g ms, want ≈50", p50)
	}
	var other LatencySet
	other.Observe(1e9, 1e9, 1e9)
	ls.Merge(&other)
	if ls.Count() != 101 {
		t.Fatalf("merged count %d, want 101", ls.Count())
	}
	var sb strings.Builder
	ls.Fprint(&sb)
	if !strings.Contains(sb.String(), "total:") || !strings.Contains(sb.String(), "#") {
		t.Fatalf("Fprint output missing content:\n%s", sb.String())
	}
}

// A histogram whose maximum keeps rising grows its bucket array
// geometrically: observing ever larger values through 1 500 new top
// buckets reallocates a handful of times, not once per bucket, and
// merging into it does the same.
func TestHistogramGrowthAmortized(t *testing.T) {
	var vals []int64
	for v := int64(1); v < 1<<40; v += v/16 + 1 {
		vals = append(vals, v)
	}
	var top int
	allocs := testing.AllocsPerRun(5, func() {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		top = len(h.counts)
	})
	if top < 1000 || allocs > 16 {
		t.Errorf("%d observations up to bucket %d allocate %v times, want at most 16", len(vals), top, allocs)
	}
	allocs = testing.AllocsPerRun(5, func() {
		var h Histogram
		for i := range vals {
			var o Histogram
			o.Observe(vals[i])
			h.Merge(&o)
		}
	})
	// Each shard allocates its own array once.
	if allocs > float64(len(vals))+16 {
		t.Errorf("%d merges allocate %v times, want at most %d", len(vals), allocs, len(vals)+16)
	}
}
