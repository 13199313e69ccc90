package stats

import "math"

// tCrit95 tabulates the two-sided 95% Student-t critical value for
// degrees of freedom 1..30 (index df-1), the textbook table every
// paired-measurement methodology uses.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Between tabulated rows it returns the value of
// the largest tabulated df not exceeding the argument — the
// conservative (wider-interval) choice.
func TCrit95(df int) float64 {
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(tCrit95):
		return tCrit95[df-1]
	case df < 40:
		return tCrit95[len(tCrit95)-1]
	case df < 60:
		return 2.021
	case df < 120:
		return 2.000
	default:
		return 1.960
	}
}

// Summary is the cross-seed aggregate of one measured quantity in one
// cell: sample count, mean, unbiased standard deviation, and the
// half-width of the Student-t 95% confidence interval on the mean.
// CI95 is zero when fewer than two samples exist (no spread estimate).
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	CI95   float64 `json:"ci95"`
}

// Summarize computes the Summary of a value slice via one Welford pass.
func Summarize(values []float64) Summary {
	var w Welford
	for _, v := range values {
		w.Observe(v)
	}
	s := Summary{N: int(w.N()), Mean: w.Mean(), Stddev: w.Stddev()}
	if s.N >= 2 {
		s.CI95 = TCrit95(s.N-1) * s.Stddev / math.Sqrt(float64(s.N))
	}
	return s
}
