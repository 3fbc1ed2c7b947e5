package stats

import (
	"math"
	"sort"
)

// Accumulator is a streaming collector of measurements. The experiment
// runner folds a sweep point's per-trial measurements into one, in trial
// order.
//
// Internally the accumulator keeps an exact value histogram. Measurements
// in this repository are round counts (integers stored as float64), so the
// number of distinct values is far below the number of trials and the
// histogram stays small; arbitrary float64 values are still handled
// correctly, just without compression.
//
// Summary output is bit-identical regardless of the order samples were
// added in: all derived statistics are computed from the histogram in
// ascending value order, exactly as Summarize computes them from a sorted
// sample.
type Accumulator struct {
	n      int
	counts map[float64]int
}

// Add records one measurement. NaN values are rejected by panic: a NaN
// measurement is a harness bug and must not silently poison quantiles.
func (a *Accumulator) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: Accumulator.Add(NaN)")
	}
	if a.counts == nil {
		a.counts = make(map[float64]int)
	}
	a.counts[x]++
	a.n++
}

// N returns the number of samples recorded so far.
func (a *Accumulator) N() int { return a.n }

// Values returns the recorded sample expanded to a sorted slice. It is
// intended for callers that need the raw sample (fits, plots); the size is
// the trial count, so this is only used off the streaming path.
func (a *Accumulator) Values() []float64 {
	keys := a.sortedKeys()
	out := make([]float64, 0, a.n)
	for _, k := range keys {
		for c := a.counts[k]; c > 0; c-- {
			out = append(out, k)
		}
	}
	return out
}

// Summary computes the same statistics Summarize would produce for the
// recorded multiset of samples. An empty accumulator yields the zero
// Summary.
func (a *Accumulator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	keys := a.sortedKeys()

	// Sum and squared deviations are accumulated value-by-value in
	// ascending order — the exact association Summarize uses on its sorted
	// sample — so the two paths agree to the last bit.
	sum := 0.0
	for _, k := range keys {
		for c := a.counts[k]; c > 0; c-- {
			sum += k
		}
	}
	mean := sum / float64(a.n)
	ss := 0.0
	for _, k := range keys {
		d := k - mean
		for c := a.counts[k]; c > 0; c-- {
			ss += d * d
		}
	}
	sd := 0.0
	if a.n > 1 {
		sd = math.Sqrt(ss / float64(a.n-1))
	}
	return Summary{
		N:      a.n,
		Mean:   mean,
		StdDev: sd,
		Min:    keys[0],
		P25:    a.quantile(keys, 0.25),
		Median: a.quantile(keys, 0.50),
		P75:    a.quantile(keys, 0.75),
		P95:    a.quantile(keys, 0.95),
		Max:    keys[len(keys)-1],
	}
}

func (a *Accumulator) sortedKeys() []float64 {
	keys := make([]float64, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}

// at returns the i-th smallest sample (0-based) from the histogram.
func (a *Accumulator) at(keys []float64, i int) float64 {
	for _, k := range keys {
		i -= a.counts[k]
		if i < 0 {
			return k
		}
	}
	return keys[len(keys)-1]
}

// quantile mirrors Percentile's linear interpolation over the histogram.
func (a *Accumulator) quantile(keys []float64, q float64) float64 {
	if q <= 0 {
		return keys[0]
	}
	if q >= 1 {
		return keys[len(keys)-1]
	}
	pos := q * float64(a.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo := a.at(keys, lo)
	if lo == hi {
		return vlo
	}
	vhi := a.at(keys, hi)
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}
