package wsync

import (
	"fmt"

	"wsync/internal/adversary"
	"wsync/internal/rendezvous"
)

// RendezvousConfig configures a k-party whitespace rendezvous game: the
// parties must meet on a common channel of a band on which an adversary
// blocks channels. This is the setting of the Theorem 4 lower bound (and
// of Azar et al.'s whitespace synchronization strategies), hosted on the
// same shared medium the synchronization engines use.
type RendezvousConfig struct {
	// Parties is the number of participants k (0 = 2).
	Parties int
	// F is the band size (0 = 8).
	F int
	// Width is the uniform spreading width every party plays
	// (0 = the Azar-optimal min(F, 2T)).
	Width int
	// T is the jammer's per-round budget of blocked channels
	// (0 <= T < F).
	T int
	// Jammer names the band model: "" or "none", "greedy" (the Theorem 4
	// product jammer), or any internal/adversary gallery name — "fixed",
	// "random", "sweep", "bursty", "reactive", "stalker".
	Jammer string
	// Masks optionally jams receptions per party: party p cannot hear
	// anything on the channels in Masks[p], while everyone else is
	// unaffected (local interference).
	Masks [][]int
	// Stagger is the wake gap between consecutive parties in rounds
	// (0 = all wake together).
	Stagger uint64
	// MaxRounds bounds the game (0 = 1<<20).
	MaxRounds uint64
	// Seed makes the run reproducible.
	Seed uint64
}

// RendezvousResult reports a rendezvous game: the first pairwise meeting
// round, the round all parties connected, and meeting/throughput counters.
type RendezvousResult = rendezvous.Result

// RunRendezvous plays the configured rendezvous game and reports when the
// parties met.
func RunRendezvous(c RendezvousConfig) (*RendezvousResult, error) {
	if c.Parties == 0 {
		c.Parties = 2
	}
	if c.F == 0 {
		c.F = 8
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 20
	}
	if c.T < 0 || c.T >= c.F {
		return nil, fmt.Errorf("wsync: T = %d, need 0 <= T < F = %d", c.T, c.F)
	}
	strat := rendezvous.OptimalWidth(c.F, c.T)
	if c.Width > 0 {
		strat = rendezvous.Uniform{M: c.Width, P: 0.5}
	}
	if strat.M > c.F {
		return nil, fmt.Errorf("wsync: rendezvous width %d exceeds band size %d", strat.M, c.F)
	}
	if len(c.Masks) > c.Parties {
		return nil, fmt.Errorf("wsync: %d masks for %d parties", len(c.Masks), c.Parties)
	}
	var jam rendezvous.Jammer
	switch c.Jammer {
	case "", "none":
	case "greedy":
		jam = rendezvous.NewGreedy(c.F, c.T)
	default:
		adv, err := adversary.New(c.Jammer, c.F, c.T, c.Seed^0x9e3779b97f4a7c15)
		if err != nil {
			return nil, fmt.Errorf("wsync: rendezvous jammer: %w", err)
		}
		jam = rendezvous.NewChurn(c.F, adv)
	}
	parties := make([]rendezvous.Party, c.Parties)
	for p := range parties {
		parties[p] = rendezvous.Party{
			Strategy: strat,
			Wake:     1 + uint64(p)*c.Stagger,
		}
		if p < len(c.Masks) {
			parties[p].Mask = c.Masks[p]
		}
	}
	res, err := rendezvous.Run(&rendezvous.Config{
		F:         c.F,
		Parties:   parties,
		Jammer:    jam,
		MaxRounds: c.MaxRounds,
		Seed:      c.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("wsync: %w", err)
	}
	return res, nil
}
