package harness

import (
	"wsync/internal/adversary"
	"wsync/internal/lowerbound"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/stats"
	"wsync/internal/trapdoor"
)

// samaritanRun executes one Good Samaritan simulation.
func (o Options) samaritanRun(p samaritan.Params, sched sim.Schedule, adv sim.Adversary,
	seed uint64, maxRounds uint64) (runResult, error) {
	return o.checkedRun(samaritanConfig(p, sched, adv, seed, maxRounds))
}

// samaritanConfig is samaritanRun's engine run: the schedule's nodes,
// built from one arena of their own.
func samaritanConfig(p samaritan.Params, sched sim.Schedule, adv sim.Adversary,
	seed uint64, maxRounds uint64) *sim.Config {
	return &sim.Config{
		F:         p.F,
		T:         p.T,
		Seed:      seed,
		NewAgent:  samaritan.MustNewArena(p, sched.N()).NewAgent,
		Schedule:  sched,
		Adversary: adv,
		MaxRounds: maxRounds,
	}
}

// runT18a measures the Good Samaritan protocol's adaptive good-case
// runtime: all nodes activated together, only t' < t low frequencies
// jammed. Synchronization time should grow linearly in t' (times log³N).
func runT18a(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T18a",
		Title:   "Good Samaritan adaptive runtime vs t' (Theorem 18)",
		Columns: []string{"N", "n", "F", "t", "t'", "median rounds", "p95", "theory t'·lg³N", "ratio"},
	}
	const nBound, f, tBudget, active = 16, 16, 8, 4
	tPrimes := []int{1, 2, 4}
	if o.quick() {
		tPrimes = []int{1, 2}
	}
	if o.Full {
		// Full tier: a dense t' grid (still strictly below the budget t,
		// so every point stays in the adaptive good case).
		tPrimes = []int{1, 2, 3, 4, 5, 6}
	}
	p := samaritan.Params{N: nBound, F: f, T: tBudget}
	var theories, medians []float64
	for _, tp := range tPrimes {
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.samaritanRun(p, sim.Simultaneous{Count: active},
				adversary.NewPrefix(f, tp), o.TrialSeed(pointKey(ptT18a, uint64(tp)), i), 1<<22)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("T18a: t'=%d trial %d did not synchronize", tp, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		theory := lowerbound.Theorem18GoodRounds(nBound, float64(tp))
		theories = append(theories, theory)
		medians = append(medians, s.Median)
		tbl.AddRow(nBound, active, f, tBudget, tp, s.Median, s.P95, theory, s.Median/theory)
	}
	ratio := stats.FitRatio(theories, medians)
	tbl.Notes = append(tbl.Notes,
		"good execution: simultaneous activation, adversary jams only the t' lowest frequencies",
		"the protocol adapts: runtime tracks actual disruption t', not the worst-case budget t",
		"runtime is quantized by super-epoch: finishing in super lg(2t') costs Σ_{k≤lg2t'} s(k)·(lgN+2) ≈ 4t'·lg³N — the geometric-sum overhead makes the ratio climb toward its asymptote at small t'",
		"shape check: ratio spread = "+formatFloat(stats.RelSpread(ratio)))
	return tbl, nil
}

// runT18b measures the general-case (fallback) bound: staggered activation
// and a full-budget adversary force the modified Trapdoor path; the
// runtime should track F·log³N.
func runT18b(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T18b",
		Title:   "Good Samaritan fallback runtime (Theorem 18)",
		Columns: []string{"N", "n", "F", "t", "median rounds", "theory F·lg³N", "ratio"},
	}
	const nBound, active = 16, 4
	fs := []int{4, 8}
	if o.quick() {
		fs = []int{4}
	}
	if o.Full {
		// Full tier: one more doubling of the band; fallback runtime is
		// Θ(F·log³N), so F = 16 doubles the per-trial cost again.
		fs = []int{4, 8, 16}
	}
	var theories, medians []float64
	for _, f := range fs {
		tBudget := f / 2
		p := samaritan.Params{N: nBound, F: f, T: tBudget}
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.samaritanRun(p,
				sim.Staggered{Count: active, Gap: p.EpochLen(1)},
				adversary.NewRandom(f, tBudget, o.TrialSeed(pointKey(ptT18bAdversary, uint64(f)), i)),
				o.TrialSeed(pointKey(ptT18bSim, uint64(f)), i), 1<<23)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("T18b: F=%d trial %d did not synchronize", f, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		theory := lowerbound.Theorem18GeneralRounds(nBound, float64(f))
		theories = append(theories, theory)
		medians = append(medians, s.Median)
		tbl.AddRow(nBound, active, f, tBudget, s.Median, theory, s.Median/theory)
	}
	ratio := stats.FitRatio(theories, medians)
	tbl.Notes = append(tbl.Notes,
		"staggered activation and a full-budget random jammer defeat the optimistic portion",
		"every execution still terminates within O(F·log³N) (fallback modified Trapdoor)",
		"shape check: ratio spread = "+formatFloat(stats.RelSpread(ratio)))
	return tbl, nil
}

// runX1 compares the two protocols across actual disruption levels t': the
// Good Samaritan wins when t' is small, the Trapdoor when disruption
// approaches the budget — the paper's motivation for an adaptive protocol.
func runX1(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "X1",
		Title:   "Crossover: Trapdoor vs Good Samaritan",
		Columns: []string{"t'", "Trapdoor median", "Samaritan median", "winner"},
	}
	const nBound, f, tBudget, active = 16, 64, 32, 2
	tPrimes := []int{1, 2, 4, 8, 16}
	if o.quick() {
		tPrimes = []int{1, 8}
	}
	if o.Full {
		// Full tier: follow the crossover all the way to t' = t, where the
		// Good Samaritan has fully lost its adaptive advantage.
		tPrimes = []int{1, 2, 4, 8, 16, 24, 32}
	}
	tp := trapdoor.Params{N: nBound, F: f, T: tBudget}
	sp := samaritan.Params{N: nBound, F: f, T: tBudget}
	for _, prime := range tPrimes {
		tdSum, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.trapdoorRun(tp, active, adversary.NewPrefix(f, prime),
				o.TrialSeed(pointKey(ptX1Trapdoor, uint64(prime)), i), 1<<22)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("X1: trapdoor t'=%d trial %d did not synchronize", prime, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		gsSum, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.samaritanRun(sp, sim.Simultaneous{Count: active},
				adversary.NewPrefix(f, prime), o.TrialSeed(pointKey(ptX1Samaritan, uint64(prime)), i), 1<<23)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("X1: samaritan t'=%d trial %d did not synchronize", prime, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		td := tdSum.Median
		gs := gsSum.Median
		winner := "Trapdoor"
		if gs < td {
			winner = "Samaritan"
		}
		tbl.AddRow(prime, td, gs, winner)
	}
	tbl.Notes = append(tbl.Notes,
		"both protocols configured for worst-case budget t; the adversary actually jams t' low frequencies",
		"Trapdoor runtime is oblivious to t'; Good Samaritan adapts — it wins for small t' and loses as t' → t")
	return tbl, nil
}
