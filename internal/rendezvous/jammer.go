package rendezvous

import (
	"fmt"

	"wsync/internal/freqset"
	"wsync/internal/sim"
)

// Round is the read-only per-round view the driver hands to jammers before
// the parties act.
type Round struct {
	// Global is the 1-based global round about to be played.
	Global uint64
	// F is the band size.
	F int
	// Locals[p] is party p's local round this round; 0 while p is asleep.
	Locals []uint64
	// Strategies[p] is party p's strategy (jamming strategies from the
	// Theorem 4 proof inspect the parties' distributions through Profiled).
	Strategies []Strategy
	// Last holds the previous round's party actions (asleep parties have
	// Freq 0); nil before the first round completes.
	Last []Action
}

// Action records one party's choice in a completed round.
type Action struct {
	Freq     int
	Transmit bool
}

// Jammer chooses the globally blocked channels each round. Block is called
// once per round, before party actions are drawn; nil means no channel is
// blocked. The returned set is read during the round only and may be
// reused across calls.
type Jammer interface {
	Block(rd *Round) *freqset.Set
}

// Static blocks the same channel set every round — a whitespace
// availability map shared by all parties.
type Static struct {
	set *freqset.Set
}

var _ Jammer = (*Static)(nil)

// NewStatic returns a jammer that always blocks the given channels (each
// in [1..f]).
func NewStatic(f int, freqs []int) *Static {
	return &Static{set: freqset.FromSlice(f, freqs)}
}

// NewPrefix returns the static jammer blocking channels 1..t. On parties
// playing equal-width uniform strategies it coincides with Greedy, which
// breaks its product ties toward low channels.
func NewPrefix(f, t int) *Static {
	freqs := make([]int, t)
	for i := range freqs {
		freqs[i] = i + 1
	}
	return NewStatic(f, freqs)
}

// Block returns the fixed set.
func (s *Static) Block(*Round) *freqset.Set { return s.set }

// Greedy is the Theorem 4 product jammer generalized to k parties: each
// round it blocks the T channels with the largest product Π_p p_p(j) of
// the awake parties' selection probabilities, ties broken toward lower
// channels — the adversary from the Theorem 4 proof. Every party's
// strategy must implement Profiled; Block panics otherwise, as jammer and
// strategies are paired by experiment code.
type Greedy struct {
	T int

	set      *freqset.Set
	products []float64
	top      []int
}

var _ Jammer = (*Greedy)(nil)

// NewGreedy returns a greedy product jammer over [1..f] blocking t
// channels per round.
func NewGreedy(f, t int) *Greedy {
	return &Greedy{T: t, set: freqset.New(f), products: make([]float64, f+1), top: make([]int, 0, t)}
}

// Block recomputes the products and blocks the T largest through
// freqset.TopT, which picks exactly what the pre-engine two-node scan
// loop (kept in lowerbound's tests) picks: ties to the lower channel, all
// channels when T covers the band. Parties multiply into the product row
// in index order, so the per-channel float multiplication sequence — and
// hence the blocked set — is bit-identical to the channel-outer
// formulation the scan loop uses; lowerbound's TestTwoNodeGameMatchesScan
// pins both.
func (g *Greedy) Block(rd *Round) *freqset.Set {
	g.set.Clear()
	for j := 1; j <= rd.F; j++ {
		g.products[j] = 1
	}
	for p, s := range rd.Strategies {
		if rd.Locals[p] == 0 {
			continue
		}
		prof, ok := s.(Profiled)
		if !ok {
			panic(fmt.Sprintf("rendezvous: Greedy needs Profiled strategies; party %d has %T", p, s))
		}
		local := rd.Locals[p]
		for j := 1; j <= rd.F; j++ {
			g.products[j] *= prof.Prob(local, j)
		}
	}
	g.top = freqset.TopT(g.set, g.products[:rd.F+1], g.T, g.top)
	return g.set
}

// Churn adapts a sim.Adversary (the internal/adversary gallery) to the
// rendezvous band: the adversary's per-round disruption set becomes the
// blocked set. Adaptive adversaries (reactive, stalker) see a synthetic
// history carrying the previous round's party actions, so they target the
// parties' actual transmissions and listens.
type Churn struct {
	adv  sim.Adversary
	hist sim.History
	rec  sim.RoundRecord
}

var _ Jammer = (*Churn)(nil)

// NewChurn wraps the adversary for a band of f channels.
func NewChurn(f int, adv sim.Adversary) *Churn {
	c := &Churn{adv: adv}
	c.hist.F = f
	return c
}

// Block rebuilds the synthetic history and delegates to the adversary.
func (c *Churn) Block(rd *Round) *freqset.Set {
	if rd.Last == nil {
		c.hist.Last = nil
	} else {
		c.rec.Round = rd.Global - 1
		c.rec.Actions = c.rec.Actions[:0]
		for p, a := range rd.Last {
			if a.Freq == 0 {
				continue
			}
			c.rec.Actions = append(c.rec.Actions, sim.ActionRecord{
				Node: sim.NodeID(p), Freq: a.Freq, Transmit: a.Transmit,
			})
		}
		c.hist.Last = &c.rec
	}
	c.hist.Completed = rd.Global - 1
	return c.adv.Disrupt(rd.Global, &c.hist)
}
