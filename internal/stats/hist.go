// Package stats is the statistical layer under the measurement harness:
// mergeable log-bucketed latency histograms with exact-rank quantiles
// (hist.go), streaming Welford mean/variance (welford.go), and
// Student-t 95% confidence intervals for cross-seed cell aggregation
// (ci.go).
//
// The paper reports every cell of its tables as a single
// tcpdump-accounted run; later measurement work showed protocol
// comparisons only become trustworthy with distributions and repeated
// trials. This package holds the math for that — and nothing else: it
// depends only on the standard library, so every layer of the repo
// (exp, core, report, the commands) can use it without cycles.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// histSubBits fixes the histogram's resolution: each power-of-two range
// of values is split into 2^histSubBits sub-buckets, bounding the
// relative width of any bucket by 2^-histSubBits (≈3.1%). Values below
// 2^(histSubBits+1) get width-1 buckets and are recorded exactly.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
)

// bucketIndex maps a non-negative value to its bucket. Buckets are
// contiguous and monotone in the value, so cumulative walks recover
// exact ranks.
func bucketIndex(v int64) int {
	if v < 2*histSubCount {
		return int(v)
	}
	shift := uint(bits.Len64(uint64(v)) - histSubBits - 1)
	return int(shift<<histSubBits) + int(v>>shift)
}

// bucketLow returns the smallest value mapping to bucket i — the exact
// inverse of bucketIndex's floor.
func bucketLow(i int) int64 {
	if i < 2*histSubCount {
		return int64(i)
	}
	shift := uint(i>>histSubBits) - 1
	m := int64(i) - int64(shift)<<histSubBits
	if shift > 0 && m > math.MaxInt64>>shift {
		return math.MaxInt64 // the open end of the top bucket
	}
	return m << shift
}

// bucketMid returns the representative value reported for bucket i: the
// midpoint of [bucketLow(i), bucketLow(i+1)). Width-1 buckets report
// their exact value.
func bucketMid(i int) int64 {
	low := bucketLow(i)
	return low + (bucketLow(i+1)-low-1)/2
}

// Histogram is a log-bucketed distribution of non-negative int64 values
// (latencies in nanoseconds, sizes in bytes — any magnitude). The zero
// value is an empty histogram ready to use.
//
// Bucket boundaries are a pure function of the bucket index, never of
// the observed data, so merging shards is an element-wise count add:
// merging in any order yields identical buckets, which is what makes
// per-run histograms aggregable across seeds and workers.
type Histogram struct {
	counts   []int64
	n        int64
	sum      int64
	min, max int64
}

// Observe records one value. Negative values are clamped to zero (a
// latency difference can round below zero only through a bug upstream;
// clamping keeps the histogram total consistent with the sample count).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.grow(i + 1)
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// grow extends counts to n buckets. The array's capacity grows
// geometrically, so a histogram whose maximum keeps rising reallocates
// a logarithmic number of times, not once per new top bucket.
func (h *Histogram) grow(n int) {
	switch {
	case n <= len(h.counts):
	case n <= cap(h.counts):
		// Past len the array has never been written: it is still zero.
		h.counts = h.counts[:n]
	default:
		grown := make([]int64, n, max(n, 2*cap(h.counts)))
		copy(grown, h.counts)
		h.counts = grown
	}
}

// Merge folds o into h. Safe when o is nil or empty.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	h.grow(len(o.counts))
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observed values.
func (h *Histogram) Count() int64 { return h.n }

// Min and Max return the exact observed extrema (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact observed maximum (0 when empty).
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// definition: the value whose rank is ceil(q·n). The rank is exact; the
// returned value is the representative (midpoint) of the rank's bucket,
// clamped to the observed [min, max], so the relative error is bounded
// by the bucket width (≤2^-histSubBits) and is zero for values below
// 2·2^histSubBits.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Bucket is one non-empty histogram bucket: the half-open value range
// [Low, High) and its count.
type Bucket struct {
	Low, High int64
	Count     int64
}

// Buckets returns the non-empty buckets in value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, Bucket{Low: bucketLow(i), High: bucketLow(i + 1), Count: c})
	}
	return out
}

// Fprint renders the histogram as an aligned ASCII table: a summary
// line (count, min, quantiles, max) and one bar per non-empty bucket.
// Values are divided by scale before display (1e6 turns nanoseconds
// into milliseconds) and labelled with unit.
func (h *Histogram) Fprint(w io.Writer, label, unit string, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	f := func(v int64) float64 { return float64(v) / scale }
	fmt.Fprintf(w, "%s: n=%d min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f %s\n",
		label, h.Count(), f(h.Min()), f(h.Quantile(0.50)), f(h.Quantile(0.90)),
		f(h.Quantile(0.99)), f(h.Max()), unit)
	buckets := h.Buckets()
	var widest int64
	for _, b := range buckets {
		if b.Count > widest {
			widest = b.Count
		}
	}
	for _, b := range buckets {
		bar := int(40 * b.Count / widest)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  [%10.2f, %10.2f) %6d %s\n",
			f(b.Low), f(b.High), b.Count, strings.Repeat("#", bar))
	}
}

// sortedQuantile is the reference nearest-rank quantile on a sorted
// slice, shared by tests; exported logic stays in Quantile.
func sortedQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
