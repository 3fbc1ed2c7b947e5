package freqset

import (
	"math"
	"math/rand"
	"testing"
)

// greedyRescan is the selection loop the history-reading jammers ran
// before TopT: t rescans of [1..F], each adding the first unchosen
// frequency of strictly highest score above -1, stopping once none
// remains. TopT must choose exactly the same set.
func greedyRescan[S int | float64](scores []S, t int) *Set {
	s := New(len(scores) - 1)
	for k := 0; k < t; k++ {
		best, bestVal := 0, S(-1)
		for f := 1; f < len(scores); f++ {
			if !s.Contains(f) && scores[f] > bestVal {
				best, bestVal = f, scores[f]
			}
		}
		if best == 0 {
			break
		}
		s.Add(best)
	}
	return s
}

// checkTopT compares TopT with the rescan on one input and checks the
// returned buffer: the chosen frequencies by decreasing score, ties
// ascending.
func checkTopT[S int | float64](t *testing.T, scores []S, budget int) {
	t.Helper()
	got := New(len(scores) - 1)
	top := TopT(got, scores, budget, nil)
	if want := greedyRescan(scores, budget); !got.Equal(want) {
		t.Fatalf("TopT(%v, t=%d) = %v, rescan picks %v", scores, budget, got, want)
	}
	if len(top) != got.Len() {
		t.Fatalf("TopT(%v, t=%d) returned %v for set %v", scores, budget, top, got)
	}
	for i := 1; i < len(top); i++ {
		a, b := scores[top[i-1]], scores[top[i]]
		if a < b || (a == b && top[i-1] > top[i]) {
			t.Fatalf("TopT(%v, t=%d) returned %v, not ordered by (score desc, frequency asc)", scores, budget, top)
		}
	}
}

// mul multiplies in float64 arithmetic, as the product jammer does; a
// constant expression such as 0.1 * 0.2 is evaluated exactly and rounded
// once.
func mul(a, b float64) float64 { return a * b }

// floatPalette holds the product scores the fuzz and random cases draw
// from: zeros of both signs, NaN, and values that are equal through
// different multiplications (0.5·0.5 and 0.25·1, 0.1·0.3 and 0.3·0.1) or
// nearly equal without being so (0.1·0.2 against 0.02).
var floatPalette = []float64{
	0, math.Copysign(0, -1), math.NaN(), 1,
	mul(0.5, 0.5), mul(0.25, 1), mul(0.1, 0.3), mul(0.3, 0.1), mul(0.1, 0.2), 0.02,
	1.0 / 3, mul(1.0/3, 1.0/3), 1.0 / 9,
}

func TestTopTMatchesGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for c := 0; c < 20000; c++ {
		f := r.Intn(70)
		budget := r.Intn(f + 3)
		ints := make([]int, f+1)
		floats := make([]float64, f+1)
		levels := 1 + r.Intn(4) // few levels: many ties
		for i := 1; i <= f; i++ {
			ints[i] = r.Intn(levels)
			floats[i] = floatPalette[r.Intn(len(floatPalette))]
		}
		checkTopT(t, ints, budget)
		checkTopT(t, floats, budget)
	}
}

// TestTopTEdges pins the boundary inputs by name.
func TestTopTEdges(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, tc := range []struct {
		name   string
		scores []float64
		t      int
		want   []int
	}{
		{"t=0", []float64{0, 3, 2, 1}, 0, nil},
		{"empty band", []float64{0}, 2, nil},
		{"ties to lower", []float64{0, 1, 2, 2, 1, 2}, 2, []int{2, 3}},
		{"signed zeros tie", []float64{0, negZero, 0, negZero}, 2, []int{1, 2}},
		{"NaN never chosen", []float64{0, nan, 0.5, nan, 0}, 3, []int{2, 4}},
		{"t above F takes all non-NaN", []float64{0, 0.2, nan, 0.1}, 9, []int{1, 3}},
		{"equal products", []float64{0, mul(0.1, 0.3), mul(0.3, 0.1), 0.02, mul(0.1, 0.2)}, 3, []int{1, 2, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(len(tc.scores) - 1)
			TopT(s, tc.scores, tc.t, nil)
			if want := FromSlice(len(tc.scores)-1, tc.want); !s.Equal(want) {
				t.Fatalf("TopT = %v, want %v", s, want)
			}
			checkTopT(t, tc.scores, tc.t)
		})
	}
}

// FuzzTopT cross-checks TopT against the rescan on arbitrary inputs. The
// first byte sets F, the second t (up to F+2); each later byte scores one
// frequency, as an int count and as a float product from floatPalette.
func FuzzTopT(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 0, 1, 2, 3, 3, 2, 1, 0})
	f.Add([]byte{6, 9, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{5, 2, 1, 2, 1, 2, 1})
	f.Add([]byte{70, 30, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 9, 9, 9, 9, 9, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 7, 7, 7, 7, 7, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 130
		budget := int(data[1]) % (n + 3)
		data = data[2:]
		ints := make([]int, n+1)
		floats := make([]float64, n+1)
		for i := 1; i <= n && i <= len(data); i++ {
			b := data[i-1]
			ints[i] = int(b % 5)
			floats[i] = floatPalette[int(b)%len(floatPalette)]
		}
		checkTopT(t, ints, budget)
		checkTopT(t, floats, budget)
	})
}
