package adversary

import (
	"wsync/internal/freqset"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// None never disrupts.
type None struct{}

var _ sim.HistoryBlind = None{}

// Disrupt returns nil, meaning no frequencies are disrupted.
func (None) Disrupt(uint64, *sim.History) *freqset.Set { return nil }

// IgnoresHistory marks None as sim.HistoryBlind.
func (None) IgnoresHistory() {}

// Fixed disrupts the same set every round.
type Fixed struct {
	set *freqset.Set
}

var _ sim.HistoryBlind = (*Fixed)(nil)

// NewFixed returns an adversary that always disrupts the given frequencies
// (each in [1..f]).
func NewFixed(f int, freqs []int) *Fixed {
	return &Fixed{set: freqset.FromSlice(f, freqs)}
}

// NewPrefix returns the weak adversary of Theorem 1: it disrupts
// frequencies 1..t in every round.
func NewPrefix(f, t int) *Fixed {
	freqs := make([]int, t)
	for i := range freqs {
		freqs[i] = i + 1
	}
	return NewFixed(f, freqs)
}

// Disrupt returns the fixed set.
func (a *Fixed) Disrupt(uint64, *sim.History) *freqset.Set { return a.set }

// IgnoresHistory marks Fixed as sim.HistoryBlind.
func (*Fixed) IgnoresHistory() {}

// Random disrupts a fresh uniform t-subset of [1..F] each round. It is an
// oblivious adversary: its choices depend only on its seed, never on the
// execution.
type Random struct {
	f, t int
	r    *rng.Rand
	set  *freqset.Set
}

var _ sim.HistoryBlind = (*Random)(nil)

// NewRandom returns a Random adversary over [1..f] disrupting t frequencies
// per round, driven by seed.
func NewRandom(f, t int, seed uint64) *Random {
	return &Random{f: f, t: t, r: rng.New(seed), set: freqset.New(f)}
}

// Disrupt returns a fresh uniform t-subset, drawn by Floyd's algorithm
// straight into the set: the same Intn draws as rng.SampleK, with the set
// answering its duplicate checks, so a steady-state Disrupt performs no
// heap allocation.
func (a *Random) Disrupt(uint64, *sim.History) *freqset.Set {
	a.set.Clear()
	for j := a.f - a.t; j < a.f; j++ {
		v := a.r.Intn(j+1) + 1
		if a.set.Contains(v) {
			v = j + 1
		}
		a.set.Add(v)
	}
	return a.set
}

// IgnoresHistory marks Random as sim.HistoryBlind.
func (*Random) IgnoresHistory() {}

// Sweep disrupts a window of t consecutive frequencies that slides by Step
// each round, wrapping around the band.
type Sweep struct {
	f, t, step int
	set        *freqset.Set
}

var _ sim.HistoryBlind = (*Sweep)(nil)

// NewSweep returns a sweeping jammer over [1..f] with window t advancing by
// step each round (step defaults to 1 when <= 0).
func NewSweep(f, t, step int) *Sweep {
	if step <= 0 {
		step = 1
	}
	return &Sweep{f: f, t: t, step: step, set: freqset.New(f)}
}

// Disrupt returns the current window.
func (a *Sweep) Disrupt(round uint64, _ *sim.History) *freqset.Set {
	a.set.Clear()
	base := int((round - 1) % uint64(a.f) * uint64(a.step) % uint64(a.f))
	for i := 0; i < a.t; i++ {
		a.set.Add((base+i)%a.f + 1)
	}
	return a.set
}

// IgnoresHistory marks Sweep as sim.HistoryBlind.
func (*Sweep) IgnoresHistory() {}

// Bursty jams a random t-subset for On rounds, then is silent for Off
// rounds, repeating. It models intermittent interference.
type Bursty struct {
	inner   *Random
	on, off uint64
	empty   *freqset.Set
}

var _ sim.HistoryBlind = (*Bursty)(nil)

// NewBursty returns a bursty jammer with the given on/off period lengths
// (each forced to >= 1).
func NewBursty(f, t int, on, off uint64, seed uint64) *Bursty {
	if on == 0 {
		on = 1
	}
	if off == 0 {
		off = 1
	}
	return &Bursty{inner: NewRandom(f, t, seed), on: on, off: off, empty: freqset.New(f)}
}

// Disrupt jams during the on-phase of each on+off cycle.
func (a *Bursty) Disrupt(round uint64, h *sim.History) *freqset.Set {
	if (round-1)%(a.on+a.off) < a.on {
		return a.inner.Disrupt(round, h)
	}
	return a.empty
}

// IgnoresHistory marks Bursty as sim.HistoryBlind.
func (*Bursty) IgnoresHistory() {}

// busiest jams the t frequencies where the most nodes acted in the
// previous round, ties broken toward lower frequencies, counting either
// transmitters (NewReactive) or listeners (NewStalker). Before any round
// has completed it jams the low prefix. It is adaptive but legal in the
// model: it reads only completed history. Not being sim.HistoryBlind, it
// gets History.Last on the complete graph and on graphs alike.
type busiest struct {
	t         int
	listeners bool // count listeners instead of transmitters
	set       *freqset.Set
	cnt       []int
	top       []int
}

var _ sim.Adversary = (*busiest)(nil)

// NewReactive returns a reactive jammer over [1..f] with budget t: each
// round it jams the t frequencies that carried the most transmissions in
// the previous round, the strongest history-based strategy expressible
// without knowing the current round's choices.
func NewReactive(f, t int) sim.Adversary { return newBusiest(f, t, false) }

// NewStalker returns a listener-targeting jammer over [1..f] with budget
// t: each round it jams the t frequencies where the most nodes listened
// in the previous round, the legal history-based strategy that maximally
// starves receivers. Against protocols whose listeners cluster
// (narrow-band phases of the Good Samaritan protocol) it is harsher than
// Reactive.
func NewStalker(f, t int) sim.Adversary { return newBusiest(f, t, true) }

func newBusiest(f, t int, listeners bool) *busiest {
	return &busiest{t: t, listeners: listeners, set: freqset.New(f),
		cnt: make([]int, f+1), top: make([]int, 0, t)}
}

// Disrupt jams the t busiest frequencies of the previous round.
func (a *busiest) Disrupt(_ uint64, h *sim.History) *freqset.Set {
	a.set.Clear()
	if h.Last == nil {
		// No history yet: jam the low prefix.
		for i := 1; i <= a.t; i++ {
			a.set.Add(i)
		}
		return a.set
	}
	clear(a.cnt)
	for _, act := range h.Last.Actions {
		if act.Transmit != a.listeners {
			a.cnt[act.Freq]++
		}
	}
	a.top = freqset.TopT(a.set, a.cnt, a.t, a.top)
	return a.set
}
