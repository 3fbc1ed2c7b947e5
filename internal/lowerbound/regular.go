package lowerbound

import (
	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// Regular describes a regular protocol (Section 5): a fixed sequence of
// (frequency distribution, broadcast probability) pairs that a node follows
// until it receives its first message. Both of the paper's protocols are
// regular; the lower-bound experiments run directly against these
// schedules.
type Regular interface {
	// Dist returns the frequency distribution for the node's local round.
	Dist(local uint64) freqdist.Dist
	// TxProb returns the broadcast probability for the local round.
	TxProb(local uint64) float64
}

// UniformRegular is the simplest regular schedule: always uniform over
// [1..M], always transmitting with probability P. Sweeping M reproduces the
// Theorem 4 proof's insight that the optimal spreading width is min(F, 2t).
type UniformRegular struct {
	M int
	P float64
}

var _ Regular = UniformRegular{}

// Dist returns the uniform distribution over [1..M].
func (u UniformRegular) Dist(uint64) freqdist.Dist { return freqdist.NewUniform(1, u.M) }

// TxProb returns P.
func (u UniformRegular) TxProb(uint64) float64 { return u.P }

// TrapdoorRegular is the Trapdoor Protocol's pre-message behavior as a
// regular schedule: uniform over [1..F'] with the Figure 1 probability
// ramp. Rounds beyond the last epoch keep the final probability. The
// schedule is derived from P once, in NewTrapdoorRegular; changing P
// afterwards has no effect.
type TrapdoorRegular struct {
	P trapdoor.Params

	dist    freqdist.Uniform
	le      uint64    // ℓE
	regular uint64    // (lgN − 1)·ℓE: the last round of the pre-final epochs
	prob    []float64 // prob[e] = P.BroadcastProb(e) for e in 1..lgN
}

var _ Regular = (*TrapdoorRegular)(nil)

// NewTrapdoorRegular builds the schedule for the given parameters.
func NewTrapdoorRegular(p trapdoor.Params) *TrapdoorRegular {
	lg := p.LgN()
	le := p.EpochLen()
	prob := make([]float64, lg+1)
	for e := 1; e <= lg; e++ {
		prob[e] = p.BroadcastProb(e)
	}
	return &TrapdoorRegular{
		P:       p,
		dist:    freqdist.NewUniform(1, p.FPrime()),
		le:      le,
		regular: uint64(lg-1) * le,
		prob:    prob,
	}
}

// Dist returns the uniform distribution over [1..F'].
func (t *TrapdoorRegular) Dist(uint64) freqdist.Dist { return t.dist }

// TxProb returns the Figure 1 epoch probability for the local round.
func (t *TrapdoorRegular) TxProb(local uint64) float64 {
	// local − 1 < regular implies ℓE > 0; local 0 wraps to the final epoch.
	if local-1 < t.regular {
		return t.prob[(local-1)/t.le+1]
	}
	return t.prob[len(t.prob)-1]
}

// UnknownT is a regular schedule for the setting of Meier et al.
// (discussed in Section 4) where the disruption budget t is NOT known: it
// cycles through spreading widths 2, 4, ..., F, spending `dwell` rounds on
// each before doubling, then restarting. Whatever the actual t, a constant
// fraction of each cycle is spent within a factor two of the optimal width
// min(F, 2t), so rendezvous costs only an O(lg F) factor over knowing t.
type UnknownT struct {
	F     int
	Dwell uint64 // rounds per width (>= 1)
}

var _ Regular = UnknownT{}

// phaseWidth returns the width used in the given local round.
func (u UnknownT) phaseWidth(local uint64) int {
	dwell := u.Dwell
	if dwell == 0 {
		dwell = 1
	}
	steps := 1
	for w := 2; w < u.F; w *= 2 {
		steps++
	}
	phase := int((local - 1) / dwell % uint64(steps))
	width := 2
	for i := 0; i < phase; i++ {
		width *= 2
	}
	if width > u.F {
		width = u.F
	}
	return width
}

// Dist returns the uniform distribution over the current width.
func (u UnknownT) Dist(local uint64) freqdist.Dist {
	return freqdist.NewUniform(1, u.phaseWidth(local))
}

// TxProb returns 1/2 (the two-node game's optimum).
func (u UnknownT) TxProb(uint64) float64 { return 0.5 }

// regularStrategy adapts a Regular schedule to rendezvous games: the
// channel draw comes first and the transmit coin second, the same stream
// order the two-node scan loop used, so engine games are bit-compatible
// with their pre-engine counterparts.
type regularStrategy struct {
	reg Regular
}

var _ rendezvous.Profiled = regularStrategy{}

// StrategyFromRegular wraps a Regular schedule as a rendezvous strategy.
// The result is Profiled (product jammers can inspect it) and stateless,
// so one value may serve several parties.
func StrategyFromRegular(reg Regular) rendezvous.Profiled {
	return regularStrategy{reg: reg}
}

// Pick samples the schedule's distribution, then the broadcast coin.
func (s regularStrategy) Pick(local uint64, r *rng.Rand) (int, bool) {
	f := s.reg.Dist(local).Sample(r)
	return f, r.Bernoulli(s.reg.TxProb(local))
}

// Prob returns the schedule's per-round channel probability.
func (s regularStrategy) Prob(local uint64, f int) float64 {
	return s.reg.Dist(local).Prob(f)
}

// Agent adapts a Regular schedule to sim.Agent: it follows the schedule
// forever, never reacts to deliveries, and never outputs. The Theorem 1
// experiment uses it to measure the time to the first clear broadcast.
type Agent struct {
	reg Regular
	r   *rng.Rand
}

var _ sim.Agent = (*Agent)(nil)

// NewAgent wraps the schedule for one node.
func NewAgent(reg Regular, r *rng.Rand) *Agent {
	return &Agent{reg: reg, r: r}
}

// Step implements sim.Agent.
func (a *Agent) Step(local uint64) sim.Action {
	f := a.reg.Dist(local).Sample(a.r)
	if a.r.Bernoulli(a.reg.TxProb(local)) {
		return sim.Action{
			Freq:     f,
			Transmit: true,
			Msg:      msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}},
		}
	}
	return sim.Action{Freq: f}
}

// Deliver implements sim.Agent (regular pre-message behavior: ignore).
func (a *Agent) Deliver(msg.Message) {}

// Output implements sim.Agent: always ⊥.
func (a *Agent) Output() sim.Output { return sim.Output{} }
