// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, standard deviation, min/max, and
// normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// Summarize computes a Summary of the sample. An empty sample yields
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean under the normal approximation (z = 1.96). It returns 0 for
// samples of fewer than two observations.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Stddev / math.Sqrt(float64(s.N))
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f ±%.3f [%.3f, %.3f]", s.N, s.Mean, s.CI95(), s.Min, s.Max)
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Median returns the sample median (0 for an empty sample). The input
// is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// ImprovementPct returns the percentage by which "better" improves on
// "base": 100*(base-better)/base. A non-positive base yields 0.
func ImprovementPct(base, better float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - better) / base
}
