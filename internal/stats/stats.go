// Package stats provides the small statistical toolkit the paper's
// evaluation methodology requires: sample mean, standard deviation,
// 95% confidence intervals under a normal assumption (the paper cites
// Box/Hunter/Hunter and assumes independent experiments), and the
// improvement metric 100*(Z-W)/Z used on every figure.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations and answers summary queries.
// The zero value is an empty sample ready for use.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var reports the unbiased sample variance (n-1 denominator), or 0 for
// samples of fewer than two observations.
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(n-1)
}

// Std reports the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr reports the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(len(s.xs)))
}

// z95 is the 97.5th percentile of the standard normal distribution,
// giving a two-sided 95% confidence interval.
const z95 = 1.959963984540054

// CI95 reports the half-width of the 95% confidence interval of the
// mean under a normal assumption, as the paper's methodology does.
func (s *Sample) CI95() float64 { return z95 * s.StdErr() }

// Summary formats the sample as "mean ± ci95 (n=N)".
func (s *Sample) Summary() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Improvement is the paper's headline metric: the percentage execution
// time reduction 100*(z-w)/z of the optimized time w over the regular
// time z. Negative values mean the optimization slowed things down
// (as for small LAPI PUTs). A zero baseline has no meaningful
// improvement and yields NaN — not 0, which would silently read as
// "no improvement" in report tables; printers render it as "n/a".
func Improvement(z, w float64) float64 {
	if z == 0 {
		return math.NaN()
	}
	return 100 * (z - w) / z
}
