package freqdist

import (
	"math"
	"testing"
	"testing/quick"

	"wsync/internal/rng"
)

// Dist is what every distribution in this package provides; the checks
// below run over each of them through it.
type Dist interface {
	// Sample draws a frequency.
	Sample(r *rng.Rand) int
	// Prob returns the probability of drawing f; zero outside the support.
	Prob(f int) float64
	// Max returns the largest frequency with nonzero probability.
	Max() int
}

var (
	_ Dist = Uniform{}
	_ Dist = Special{}
)

// probSum sums Prob over the full support plus a margin; it should be 1.
func probSum(t *testing.T, d Dist) float64 {
	t.Helper()
	sum := 0.0
	for f := 0; f <= d.Max()+2; f++ {
		p := d.Prob(f)
		if p < 0 {
			t.Fatalf("Prob(%d) = %v < 0", f, p)
		}
		sum += p
	}
	return sum
}

// checkEmpirical draws from d and compares frequencies against Prob.
func checkEmpirical(t *testing.T, d Dist, draws int) {
	t.Helper()
	r := rng.New(12345)
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		f := d.Sample(r)
		if f < 1 || f > d.Max() {
			t.Fatalf("Sample returned %d outside [1..%d]", f, d.Max())
		}
		counts[f]++
	}
	for f := 1; f <= d.Max(); f++ {
		want := d.Prob(f)
		got := float64(counts[f]) / float64(draws)
		// Tolerance: 5 standard deviations of the binomial proportion plus
		// a small absolute floor for near-zero cells.
		tol := 5*math.Sqrt(want*(1-want)/float64(draws)) + 0.002
		if math.Abs(got-want) > tol {
			t.Errorf("freq %d: empirical %.4f vs Prob %.4f (tol %.4f)", f, got, want, tol)
		}
	}
}

func TestUniform(t *testing.T) {
	u := NewUniform(3, 7)
	if got := probSum(t, u); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Prob sums to %v", got)
	}
	if u.Prob(2) != 0 || u.Prob(8) != 0 {
		t.Fatal("Prob nonzero outside range")
	}
	if u.Prob(5) != 0.2 {
		t.Fatalf("Prob(5) = %v, want 0.2", u.Prob(5))
	}
	if u.Max() != 7 {
		t.Fatalf("Max = %d", u.Max())
	}
	checkEmpirical(t, u, 50000)
}

func TestUniformSingleton(t *testing.T) {
	u := NewUniform(4, 4)
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		if u.Sample(r) != 4 {
			t.Fatal("singleton uniform sampled wrong value")
		}
	}
	if u.Prob(4) != 1 {
		t.Fatalf("Prob(4) = %v", u.Prob(4))
	}
}

func TestUniformPanics(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{0, 5}, {3, 2}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUniform(%d,%d) did not panic", c.lo, c.hi)
				}
			}()
			NewUniform(c.lo, c.hi)
		}()
	}
}

func TestSpecialSmallF(t *testing.T) {
	s := NewSpecial(1)
	if s.Sample(rng.New(1)) != 1 {
		t.Fatal("Special over F=1 must return 1")
	}
	if s.Prob(1) != 1 {
		t.Fatalf("Prob(1) = %v", s.Prob(1))
	}
}

func TestSpecialSumsToOne(t *testing.T) {
	for _, f := range []int{2, 3, 4, 7, 8, 16, 31, 32, 100} {
		s := NewSpecial(f)
		if got := probSum(t, s); math.Abs(got-1) > 1e-9 {
			t.Errorf("F=%d: Prob sums to %v", f, got)
		}
	}
}

func TestSpecialFavorsSmallFrequencies(t *testing.T) {
	s := NewSpecial(64)
	if s.Prob(1) <= s.Prob(32) {
		t.Fatalf("Prob(1)=%v should exceed Prob(32)=%v", s.Prob(1), s.Prob(32))
	}
	// Monotone non-increasing across doubling boundaries.
	prev := s.Prob(1)
	for _, f := range []int{2, 4, 8, 16, 32, 64} {
		p := s.Prob(f)
		if p > prev+1e-12 {
			t.Fatalf("Prob(%d)=%v exceeds Prob at previous boundary %v", f, p, prev)
		}
		prev = p
	}
}

func TestSpecialEmpirical(t *testing.T) {
	checkEmpirical(t, NewSpecial(16), 100000)
	checkEmpirical(t, NewSpecial(12), 100000) // non-power-of-two F
}

// The paper's Figure 2 closed form: for special rounds the probability of
// choosing frequency f is proportional to 2^(⌊lg(F/f)⌋+1) - 1 over 2F·lgF
// (for power-of-two F). Our derivation P[f] = (1/L)·Σ_d 1/min(2^d,F) is the
// exact version; check they agree in ordering terms: the ratio of Prob(1)
// to Prob(F) should be about 2^L - 1 ... L-dependent; at minimum, check the
// geometric decay pattern: Prob halves (approximately) at each doubling.
func TestSpecialGeometricDecay(t *testing.T) {
	s := NewSpecial(64)
	for _, f := range []int{2, 4, 8, 16, 32} {
		lo := s.Prob(f)
		hi := s.Prob(f * 2)
		if hi <= 0 || lo/hi < 1.2 {
			t.Errorf("Prob(%d)/Prob(%d) = %v, want clear decay", f, 2*f, lo/hi)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{
		-5: 0, 0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1023: 10, 1024: 10, 1025: 11,
	}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

// ceilLog2Loop is the doubling loop CeilLog2 used before it became one
// bits.Len call, kept as the reference. It never terminates for n > 1<<62
// (the doubling overflows), so callers stay at or below that.
func ceilLog2Loop(n int) int {
	if n <= 1 {
		return 0
	}
	l := 0
	v := 1
	for v < n {
		v <<= 1
		l++
	}
	return l
}

// TestCeilLog2MatchesLoop checks CeilLog2 and NextPow2 against the
// reference loop on every n in [-4, 1<<16] and around every power of two
// 2^k, k <= 62.
func TestCeilLog2MatchesLoop(t *testing.T) {
	check := func(n int) {
		t.Helper()
		if n > 1<<62 {
			// Past the reference loop's range; only 2^62+1 is probed.
			if got := CeilLog2(n); got != 63 {
				t.Errorf("CeilLog2(%d) = %d, want 63", n, got)
			}
			return
		}
		want := ceilLog2Loop(n)
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
		if got := NextPow2(n); got != 1<<uint(want) {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, 1<<uint(want))
		}
	}
	for n := -4; n <= 1<<16; n++ {
		check(n)
	}
	for k := 0; k <= 62; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
}

// Property: every distribution's Prob is a valid pmf over its support.
func TestQuickSpecialPMF(t *testing.T) {
	f := func(fRaw uint8) bool {
		F := int(fRaw%200) + 1
		s := NewSpecial(F)
		sum := 0.0
		for fr := 1; fr <= F; fr++ {
			p := s.Prob(fr)
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: samples always land in [1..Max].
func TestQuickSampleInSupport(t *testing.T) {
	f := func(seed uint64, fRaw uint8) bool {
		F := int(fRaw%100) + 1
		r := rng.New(seed)
		dists := []Dist{NewSpecial(F), NewUniform(1, F)}
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				v := d.Sample(r)
				if v < 1 || v > d.Max() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpecialSample(b *testing.B) {
	s := NewSpecial(64)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Sample(r)
	}
}
