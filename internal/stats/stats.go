// Package stats provides the small statistical toolkit the experiment
// harness uses: percentiles, CDFs, means with standard errors, and simple
// summaries matching how the paper reports results (90th percentile with
// standard error across trials, CDFs across segments).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies xs; the input is not
// modified. NaN samples are ignored (a NaN would otherwise poison the sort
// order and the interpolation); p outside [0, 100] clamps to the extremes,
// and a NaN p returns NaN.
func Percentile(xs []float64, p float64) float64 {
	cp := sortedClean(xs)
	if len(cp) == 0 {
		return 0
	}
	return percentileSorted(cp, p)
}

// sortedClean returns a sorted copy of xs with NaN samples dropped.
func sortedClean(xs []float64) []float64 {
	cp := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			cp = append(cp, x)
		}
	}
	sort.Float64s(cp)
	return cp
}

// percentileSorted interpolates the p-th percentile of a sorted non-empty
// NaN-free sample. p <= 0 and p >= 100 clamp to the extremes; a NaN p has
// no defined rank, so it propagates as NaN instead of indexing with the
// garbage int(NaN) conversion.
func percentileSorted(sorted []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	v := sorted[lo]*(1-frac) + sorted[hi]*frac
	// The interpolation can round outside the bracket — subnormal terms
	// underflow to 0, huge ones overflow — so clamp to the two ranks.
	if v < sorted[lo] {
		v = sorted[lo]
	}
	if v > sorted[hi] {
		v = sorted[hi]
	}
	return v
}

// JainIndex computes Jain's fairness index (Σx)² / (n·Σx²) over xs — 1.0
// when every element is equal (a perfectly fair split), approaching 1/n
// when one element dominates. Degenerate inputs (empty, all-zero) return 1:
// nothing is being shared unfairly. NaN samples are ignored.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary aggregates a sample the way the paper reports experiment metrics.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	P10    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs (NaN samples ignored).
func Summarize(xs []float64) Summary {
	cp := sortedClean(xs)
	if len(cp) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(cp),
		Mean:   Mean(cp),
		StdDev: StdDev(cp),
		StdErr: StdErr(cp),
		Min:    cp[0],
		P10:    percentileSorted(cp, 10),
		P25:    percentileSorted(cp, 25),
		Median: percentileSorted(cp, 50),
		P75:    percentileSorted(cp, 75),
		P90:    percentileSorted(cp, 90),
		P95:    percentileSorted(cp, 95),
		Max:    cp[len(cp)-1],
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g±%.2g p50=%.4g p90=%.4g max=%.4g",
		s.N, s.Mean, s.StdErr, s.Median, s.P90, s.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied and sorted; NaN samples
// are dropped — they have no place on a distribution axis).
func NewCDF(xs []float64) CDF {
	return CDF{sorted: sortedClean(xs)}
}

// At returns P(X <= x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// include equal values
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0..1).
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// Len returns the sample size.
func (c CDF) Len() int { return len(c.sorted) }

// Points returns (x, P(X<=x)) pairs suitable for plotting, thinned to at
// most n points while always including the extremes.
func (c CDF) Points(n int) [][2]float64 {
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil
	}
	if n > m {
		n = m
	}
	if n == 1 {
		// A single point must still be an extreme: the full-CDF endpoint
		// (max x, P = 1), not the minimum.
		return [][2]float64{{c.sorted[m-1], 1}}
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (m - 1) / (n - 1)
		pts = append(pts, [2]float64{c.sorted[idx], float64(idx+1) / float64(m)})
	}
	return pts
}

// Sparkline renders the CDF as a compact ASCII curve over [lo, hi] with the
// given width, used by the bench harness to print figure "series".
func (c CDF) Sparkline(lo, hi float64, width int) string {
	if width <= 0 || len(c.sorted) == 0 || hi <= lo {
		return ""
	}
	const levels = " .:-=+*#%@"
	var b strings.Builder
	for i := 0; i < width; i++ {
		// A single column has no span to interpolate over; sample the
		// midpoint instead of dividing by width-1 == 0 (NaN glyph).
		x := (lo + hi) / 2
		if width > 1 {
			x = lo + (hi-lo)*float64(i)/float64(width-1)
		}
		p := c.At(x)
		idx := int(p * float64(len(levels)-1))
		b.WriteByte(levels[idx])
	}
	return b.String()
}
