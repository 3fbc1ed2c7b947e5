package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Median != 42 || s.Min != 42 || s.Max != 42 || s.StdDev != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{4, 2, 6, 8, 10})
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
	if !almost(s.Mean, 6, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Median != 6 || s.Min != 2 || s.Max != 10 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample sd of {2,4,6,8,10} = sqrt(40/4) = sqrt(10).
	if !almost(s.StdDev, math.Sqrt(10), 1e-12) {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {-1, 10}, {2, 40},
		{0.5, 25}, {0.25, 17.5}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty sample")
		}
	}()
	Percentile(nil, 0.5)
}

func TestFitRatio(t *testing.T) {
	theory := []float64{10, 20, 40}
	measured := []float64{30, 60, 120} // constant ratio 3
	s := FitRatio(theory, measured)
	if !almost(s.Mean, 3, 1e-12) || !almost(s.Min, 3, 1e-12) || !almost(s.Max, 3, 1e-12) {
		t.Fatalf("ratio summary = %+v", s)
	}
	if got := RelSpread(s); !almost(got, 0, 1e-12) {
		t.Fatalf("RelSpread = %v", got)
	}
	// Zero theory entries are skipped.
	s2 := FitRatio([]float64{0, 10}, []float64{5, 20})
	if s2.N != 1 || !almost(s2.Mean, 2, 1e-12) {
		t.Fatalf("ratio with zero theory = %+v", s2)
	}
}

func TestRelSpreadInf(t *testing.T) {
	if !math.IsInf(RelSpread(Summary{}), 1) {
		t.Fatal("RelSpread of zero median should be +Inf")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
}

// Property: Min <= P25 <= Median <= P75 <= P95 <= Max and Min <= Mean <= Max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
			s.P75 <= s.P95 && s.P95 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
