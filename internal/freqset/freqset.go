package freqset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a set of frequencies drawn from [1..F] for the F fixed at New. The
// zero value is an empty set over zero frequencies; most callers should use
// New.
type Set struct {
	f     int
	words []uint64
}

// New returns an empty set over frequencies [1..f]. It panics if f < 0.
func New(f int) *Set {
	if f < 0 {
		panic("freqset: negative universe size")
	}
	return &Set{f: f, words: make([]uint64, (f+63)/64)}
}

// FromSlice returns a set over [1..f] containing the given frequencies.
// Frequencies outside [1..f] cause a panic, as they indicate a programming
// error in adversary or protocol code.
func FromSlice(f int, freqs []int) *Set {
	s := New(f)
	for _, fr := range freqs {
		s.Add(fr)
	}
	return s
}

func (s *Set) check(freq int) {
	if freq < 1 || freq > s.f {
		panic(fmt.Sprintf("freqset: frequency %d out of universe [1..%d]", freq, s.f))
	}
}

// Add inserts freq into the set.
func (s *Set) Add(freq int) {
	s.check(freq)
	s.words[(freq-1)/64] |= 1 << uint((freq-1)%64)
}

// Contains reports whether freq is in the set. Frequencies outside the
// universe are reported as absent rather than panicking, because the
// simulator probes arbitrary frequencies during delivery resolution.
func (s *Set) Contains(freq int) bool {
	if freq < 1 || freq > s.f {
		return false
	}
	return s.words[(freq-1)/64]&(1<<uint((freq-1)%64)) != 0
}

// Len returns the number of frequencies in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all frequencies.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Slice returns the members in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b+1)
			w &= w - 1
		}
	}
	return out
}

// Equal reports whether the two sets have identical universes and members.
func (s *Set) Equal(other *Set) bool {
	if s.f != other.f {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// String renders the set as {f1, f2, ...} for diagnostics.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, fr := range s.Slice() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", fr)
	}
	b.WriteByte('}')
	return b.String()
}
