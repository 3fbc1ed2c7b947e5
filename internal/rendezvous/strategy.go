package rendezvous

import "wsync/internal/rng"

// Strategy decides one party's behavior. Pick is called once per round the
// party is awake, with the party's local round (1-based) and its private
// random stream, and returns the channel to use and whether to transmit on
// it (false = listen). Stateful strategies are allowed — the engine gives
// every party its own Strategy value and calls it from a single goroutine —
// but they must draw all randomness from the supplied stream so runs stay
// reproducible.
type Strategy interface {
	Pick(local uint64, r *rng.Rand) (freq int, transmit bool)
}

// Profiled is implemented by strategies that can report the marginal
// probability of picking each channel in a given local round. Product-form
// jammers (Greedy) require every party's strategy to be Profiled.
type Profiled interface {
	Strategy
	// Prob returns the probability that Pick chooses freq in the given
	// local round, marginalized over the strategy's randomness.
	Prob(local uint64, freq int) float64
}

// Uniform spreads uniformly over [1..M] and transmits with probability P —
// the regular schedule of the Theorem 4 game. Its draws (channel first,
// then the transmit coin) are bit-compatible with
// lowerbound.UniformRegular under the two-node scan loop.
type Uniform struct {
	M int
	P float64
}

var _ Profiled = Uniform{}

// Pick draws a channel uniformly from [1..M], then the transmit coin.
func (u Uniform) Pick(_ uint64, r *rng.Rand) (int, bool) {
	f := r.IntRange(1, u.M)
	return f, r.Bernoulli(u.P)
}

// Prob returns 1/M on [1..M] and 0 outside.
func (u Uniform) Prob(_ uint64, f int) float64 {
	if f < 1 || f > u.M {
		return 0
	}
	return 1 / float64(u.M)
}

// OptimalWidth returns the Azar-style optimal-width uniform strategy for a
// band of f channels with t blocked per round: uniform over min(f, 2t)
// channels (clamped to [1..f]), transmitting with probability 1/2 — the
// extremal point of the Theorem 4 proof.
func OptimalWidth(f, t int) Uniform {
	w := 2 * t
	if w > f {
		w = f
	}
	if w < 1 {
		w = 1
	}
	return Uniform{M: w, P: 0.5}
}

// StayRamble is the classic symmetric-rendezvous block strategy: time is
// cut into blocks of Dwell rounds, and at each block start the party flips
// a coin — with probability PStay it camps on one uniformly chosen channel
// for the block ("stay"), otherwise it hops to a fresh uniform channel
// every round of the block ("ramble"). It transmits with probability P
// each round. The marginal channel distribution is uniform over [1..M], so
// StayRamble is Profiled. Stateful: use one instance per party.
type StayRamble struct {
	M     int
	Dwell uint64 // block length; 0 means 1
	PStay float64
	P     float64

	stay   bool
	anchor int
}

var _ Profiled = (*StayRamble)(nil)

// Pick re-draws the block mode and anchor at block starts, then plays the
// block: the anchor when staying, a fresh uniform channel when rambling.
func (s *StayRamble) Pick(local uint64, r *rng.Rand) (int, bool) {
	dwell := s.Dwell
	if dwell == 0 {
		dwell = 1
	}
	if (local-1)%dwell == 0 {
		s.stay = r.Bernoulli(s.PStay)
		s.anchor = r.IntRange(1, s.M)
	}
	f := s.anchor
	if !s.stay {
		f = r.IntRange(1, s.M)
	}
	return f, r.Bernoulli(s.P)
}

// Prob returns the marginal 1/M on [1..M]: both block modes choose their
// channels uniformly.
func (s *StayRamble) Prob(_ uint64, f int) float64 {
	if f < 1 || f > s.M {
		return 0
	}
	return 1 / float64(s.M)
}

// Oblivious is a deterministic hop sequence: in local round l it uses
// channel ((Start + (l−1)·Stride) mod M) + 1 and transmits with
// probability P (role randomness only). Stride 0 camps on one channel.
// Deterministic hopping is the gallery's fragile entry: a product jammer
// or a resonant sweeper can starve it forever, which the R3 experiment
// makes visible.
type Oblivious struct {
	M      int
	Start  int // in [0..M)
	Stride int // in [0..M)
	P      float64
}

var _ Profiled = Oblivious{}

// channel returns the deterministic channel for the local round.
func (o Oblivious) channel(local uint64) int {
	return int((uint64(o.Start) + (local-1)*uint64(o.Stride)) % uint64(o.M))
}

// Pick returns the scheduled channel and the transmit coin.
func (o Oblivious) Pick(local uint64, r *rng.Rand) (int, bool) {
	return o.channel(local) + 1, r.Bernoulli(o.P)
}

// Prob is 1 on the scheduled channel and 0 elsewhere.
func (o Oblivious) Prob(local uint64, f int) float64 {
	if f == o.channel(local)+1 {
		return 1
	}
	return 0
}
