package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
}

// Summarize computes summary statistics of xs. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	ss := 0.0
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	sd := 0.0
	if len(sorted) > 1 {
		sd = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		StdDev: sd,
		Min:    sorted[0],
		P25:    Percentile(sorted, 0.25),
		Median: Percentile(sorted, 0.50),
		P75:    Percentile(sorted, 0.75),
		P95:    Percentile(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}
}

// Percentile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.0f med=%.1f p95=%.1f max=%.0f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P95, s.Max)
}

// FitRatio reports how well ys ≈ c·theory fits by returning the per-point
// ratios' summary. A reproduction "matches the shape" when the ratio is
// near-constant across the sweep (small relative spread).
func FitRatio(theory, ys []float64) Summary {
	n := len(theory)
	if n > len(ys) {
		n = len(ys)
	}
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if theory[i] != 0 {
			ratios = append(ratios, ys[i]/theory[i])
		}
	}
	return Summarize(ratios)
}

// RelSpread returns (max-min)/median of the sample, a scale-free measure of
// how constant a ratio series is. Returns +Inf when the median is zero.
func RelSpread(s Summary) float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Max - s.Min) / s.Median
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
