package freqdist

import (
	"fmt"
	"math/bits"

	"wsync/internal/rng"
)

// Uniform is the uniform distribution over [Lo..Hi].
type Uniform struct {
	Lo, Hi int
}

// NewUniform returns the uniform distribution over [lo..hi]. It panics if
// the range is empty or starts below 1.
func NewUniform(lo, hi int) Uniform {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("freqdist: invalid uniform range [%d..%d]", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample draws a frequency uniformly from [Lo..Hi].
func (u Uniform) Sample(r *rng.Rand) int { return r.IntRange(u.Lo, u.Hi) }

// Prob returns 1/(Hi-Lo+1) inside the range and 0 outside.
func (u Uniform) Prob(f int) float64 {
	if f < u.Lo || f > u.Hi {
		return 0
	}
	return 1 / float64(u.Hi-u.Lo+1)
}

// Max returns Hi.
func (u Uniform) Max() int { return u.Hi }

// Special is the Good Samaritan special-round distribution over [1..F]:
// draw d uniformly from [1..L] where L = ⌈lg F⌉, then draw f uniformly from
// [1..min(2^d, F)]. Small frequencies are geometrically favored, which lets
// a special-round sender find receivers regardless of which super-epoch
// (and hence which prefix [1..2^k]) they confine themselves to.
type Special struct {
	f int
	l int
}

// NewSpecial returns the special-round distribution over [1..f]. It panics
// if f < 1.
func NewSpecial(f int) Special {
	if f < 1 {
		panic("freqdist: Special needs F >= 1")
	}
	return Special{f: f, l: CeilLog2(f)}
}

// Sample draws d ~ U[1..L], then f ~ U[1..min(2^d, F)].
func (s Special) Sample(r *rng.Rand) int {
	if s.f == 1 {
		return 1
	}
	d := r.IntRange(1, s.l)
	hi := 1 << uint(d)
	if hi > s.f {
		hi = s.f
	}
	return r.IntRange(1, hi)
}

// Prob returns the exact point probability: the average over d of the
// uniform probability on [1..min(2^d, F)] restricted to f.
func (s Special) Prob(f int) float64 {
	if f < 1 || f > s.f {
		return 0
	}
	if s.f == 1 {
		return 1
	}
	p := 0.0
	for d := 1; d <= s.l; d++ {
		hi := 1 << uint(d)
		if hi > s.f {
			hi = s.f
		}
		if f <= hi {
			p += 1 / float64(hi)
		}
	}
	return p / float64(s.l)
}

// Max returns F.
func (s Special) Max() int { return s.f }

// CeilLog2 returns ⌈log2(n)⌉ for n ≥ 1, and 0 for n ≤ 1. The protocols use
// it for epoch counts (lg N) and super-epoch counts (lg F).
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// NextPow2 returns the smallest power of two >= n, and 1 for n <= 1. It
// overflows for n > 1<<62.
func NextPow2(n int) int {
	return 1 << uint(CeilLog2(n))
}
