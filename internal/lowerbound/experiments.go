package lowerbound

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/adversary"
	"wsync/internal/pool"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// FirstClearResult reports one Theorem 1 experiment run.
type FirstClearResult struct {
	// Rounds is the round of the first clear broadcast (a lone,
	// undisrupted transmitter), 0 if none occurred within the budget.
	Rounds uint64
	// Happened reports whether a clear broadcast occurred at all.
	Happened bool
	// NodeRounds is the run's active node-rounds (sim.Stats.NodeRounds).
	NodeRounds uint64
}

// FirstClear runs the Theorem 1 setting: n nodes all activated in round 1
// run the regular schedule against the weak adversary disrupting
// frequencies 1..t forever; the run stops at the first clear broadcast.
// Any solution to wireless synchronization must produce this event, so its
// first occurrence lower-bounds synchronization time.
func FirstClear(reg Regular, n, f, t int, maxRounds uint64, seed uint64) (FirstClearResult, error) {
	cfg := &sim.Config{
		F:    f,
		T:    t,
		Seed: seed,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return NewAgent(reg, r)
		},
		Schedule:       sim.Simultaneous{Count: n},
		Adversary:      adversary.NewPrefix(f, t),
		MaxRounds:      maxRounds,
		RunToMaxRounds: true,
		StopWhen:       func(h *sim.History) bool { return h.EverClear },
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return FirstClearResult{}, fmt.Errorf("lowerbound: first-clear run: %w", err)
	}
	return FirstClearResult{Rounds: res.FirstClear, Happened: res.FirstClear != 0, NodeRounds: res.Stats.NodeRounds}, nil
}

// TwoNodeResult reports one Theorem 4 rendezvous game.
type TwoNodeResult struct {
	// Rounds counts rounds after the second node awakes until the first
	// successful rendezvous (one node transmits, the other listens, same
	// undisrupted frequency); 0 with Met == false if the budget ran out.
	Rounds uint64
	Met    bool
	// NodeRounds is the game's awake party-rounds
	// (rendezvous.Result.NodeRounds).
	NodeRounds uint64
}

// TwoNodeGame plays the Theorem 4 game: nodes u and v follow regular
// schedules (v awakened offset rounds after u) against the greedy adversary
// that each round disrupts the t frequencies with the largest product
// p_j·q_j of the nodes' selection probabilities — the strategy from the
// Theorem 4 proof. The game ends at the first rendezvous.
//
// TwoNodeGame is a two-party instance of rendezvous.Run with the Greedy
// product jammer. The original private loop survives in this package's
// tests as the differential oracle; the two produce bit-identical meeting
// rounds (TestTwoNodeGameMatchesScan).
func TwoNodeGame(u, v Regular, f, t int, offset uint64, maxRounds uint64, seed uint64) TwoNodeResult {
	if maxRounds == 0 {
		return TwoNodeResult{}
	}
	res, err := rendezvous.Run(&rendezvous.Config{
		F: f,
		Parties: []rendezvous.Party{
			{Strategy: StrategyFromRegular(u), Head: offset},
			{Strategy: StrategyFromRegular(v)},
		},
		Jammer:    rendezvous.NewGreedy(f, t),
		MaxRounds: maxRounds,
		Seed:      seed,
	})
	if err != nil {
		// The wrapper constructs a valid config for every input the
		// original loop accepted; a failure here is a programming error.
		panic(fmt.Sprintf("lowerbound: two-node game: %v", err))
	}
	return TwoNodeResult{Rounds: res.FirstMeet, Met: res.FirstMeet != 0, NodeRounds: res.NodeRounds}
}

// BestUniformWidth plays the two-node game with UniformRegular{M, 1/2}
// schedules for every width M in [1..F] and returns the width minimizing
// the mean rendezvous time, along with the per-width means and the
// node-rounds of every game it played. It reproduces the Theorem 4
// proof's extremal structure: the optimum is near min(F, 2t).
//
// The (width, trial) grid is fanned out across `workers` goroutines via
// the shared work-stealing scheduler (0 means one per CPU). Per-game
// seeds depend only on (seed, width, trial) and the per-width reduction
// sums in trial order, so the result is bit-identical at every worker
// count.
func BestUniformWidth(f, t int, trials int, maxRounds uint64, seed uint64, workers int) (best int, means []float64, nodeRounds uint64) {
	means = make([]float64, f+1)
	// Widths m <= t are fully jammable: rendezvous never happens, so they
	// cost the full budget and never enter the job grid.
	for m := 1; m <= t && m <= f; m++ {
		means[m] = float64(maxRounds)
	}
	playable := f - t // m in [t+1, f]
	if playable <= 0 {
		return 1, means, 0
	}
	rounds := make([]float64, playable*trials) // rounds[(m-t-1)*trials + i]
	var played atomic.Uint64
	pool.Run(workers, playable*trials, func(_, job int) {
		m, i := t+1+job/trials, job%trials
		res := TwoNodeGame(UniformRegular{M: m, P: 0.5}, UniformRegular{M: m, P: 0.5},
			f, t, 0, maxRounds, seed+uint64(i)*7919+uint64(m))
		played.Add(res.NodeRounds)
		if res.Met {
			rounds[job] = float64(res.Rounds)
		} else {
			rounds[job] = float64(maxRounds)
		}
	})

	best = 1
	bestMean := -1.0
	for m := t + 1; m <= f; m++ {
		total := 0.0
		for i := 0; i < trials; i++ {
			total += rounds[(m-t-1)*trials+i]
		}
		means[m] = total / float64(trials)
		if bestMean < 0 || means[m] < bestMean {
			best, bestMean = m, means[m]
		}
	}
	return best, means, played.Load()
}
