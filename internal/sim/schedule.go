package sim

import "wsync/internal/rng"

// Simultaneous activates Count nodes in round 1. This is the "good
// execution" pattern the Good Samaritan protocol is optimistic about, and
// the weak-adversary pattern of the Theorem 1 lower bound.
type Simultaneous struct {
	Count int
}

var _ Schedule = Simultaneous{}

// N returns the node count.
func (s Simultaneous) N() int { return s.Count }

// ActivationRound returns 1.
func (s Simultaneous) ActivationRound(int) uint64 { return 1 }

// Staggered activates node i in round 1 + i*Gap, modeling devices that
// come together in an ad hoc manner at a fixed rate.
type Staggered struct {
	Count int
	Gap   uint64
}

var _ Schedule = Staggered{}

// N returns the node count.
func (s Staggered) N() int { return s.Count }

// ActivationRound returns 1 + i*Gap.
func (s Staggered) ActivationRound(i int) uint64 { return 1 + uint64(i)*s.Gap }

// Explicit activates node i at Rounds[i].
type Explicit struct {
	Rounds []uint64
}

var _ Schedule = Explicit{}

// N returns the node count.
func (s Explicit) N() int { return len(s.Rounds) }

// ActivationRound returns the configured round for node i.
func (s Explicit) ActivationRound(i int) uint64 { return s.Rounds[i] }

// RandomWindow returns a schedule that activates n nodes at rounds drawn
// independently and uniformly from [1..window], determined by seed. It
// models uncoordinated ad hoc arrival.
func RandomWindow(n int, window uint64, seed uint64) Explicit {
	r := rng.New(seed)
	rounds := make([]uint64, n)
	for i := range rounds {
		rounds[i] = 1 + r.Uint64()%window
	}
	return Explicit{Rounds: rounds}
}
