package stats

import "math"

// Welford accumulates a mean and variance in one streaming pass using
// Welford's update, numerically stable for the long, similarly-sized
// latency series the sweeps produce. The zero value is an empty
// accumulator; Merge combines accumulators from parallel shards with
// the Chan et al. pairwise formula, so the result is independent of how
// the population was partitioned.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Observe folds one sample in.
func (w *Welford) Observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean)) // rounded before the sum: no fused multiply-add
}

// N returns the number of samples observed.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (n−1 denominator; 0
// when fewer than two samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }
