package stats

import (
	"math"
	"testing"
)

// testSample returns a deterministic sample with heavy repetition
// (round-count-like) plus fractional values.
func testSample(n int) []float64 {
	xs := make([]float64, n)
	state := uint64(88172645463325252)
	for i := range xs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if i%5 == 0 {
			xs[i] = float64(state%97) / 8
		} else {
			xs[i] = float64(state % 23)
		}
	}
	return xs
}

// TestAccumulatorMatchesSummarize is the accumulator's core contract: in
// any order of addition, its Summary is bit-identical to Summarize of the
// whole sample.
func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := testSample(400)
	want := Summarize(xs)
	for _, stride := range []int{1, 3, 7, 31} { // coprime to len(xs): a permutation
		var a Accumulator
		for i := range xs {
			a.Add(xs[i*stride%len(xs)])
		}
		if a.N() != len(xs) {
			t.Fatalf("stride %d: N = %d", stride, a.N())
		}
		if got := a.Summary(); got != want {
			t.Errorf("stride %d: summary %+v != %+v", stride, got, want)
		}
	}
}

func TestAccumulatorEdgeCases(t *testing.T) {
	var a Accumulator
	if a.Summary() != (Summary{}) {
		t.Error("empty accumulator summary not zero")
	}
	if a.N() != 0 {
		t.Error("empty accumulator has samples")
	}
	a.Add(3)
	s := a.Summary()
	if s.N != 1 || s.Mean != 3 || s.Median != 3 || s.StdDev != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
	if got := a.Values(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Values = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add(NaN) did not panic")
		}
	}()
	a.Add(math.NaN())
}

func TestAccumulatorValuesSorted(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{5, 1, 3, 1, 5, 5} {
		a.Add(x)
	}
	got := a.Values()
	want := []float64{1, 1, 3, 5, 5, 5}
	if len(got) != len(want) {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}
