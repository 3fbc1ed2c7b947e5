package harness

import (
	"math"

	"wsync/internal/lowerbound"
	"wsync/internal/stats"
	"wsync/internal/trapdoor"
)

// runL2 verifies Lemma 2 empirically: for distributions with
// p_1 <= ... <= p_{s+1} and p_{s+1} >= 1/2, the probability that no bin
// receives exactly one ball is at least 2^{-s}.
func runL2(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "L2",
		Title:   "Balls-in-bins no-singleton bound (Lemma 2)",
		Columns: []string{"s", "balls m", "profile", "P[no singleton]", "bound 2^-s", "holds"},
	}
	trials := 6000
	if o.quick() {
		trials = 1500
	}
	cases := []struct {
		s     int
		m     int
		pLast float64
		decay float64
		name  string
	}{
		{1, 2, 0.5, 1, "uniform"},
		{2, 4, 0.5, 1, "uniform"},
		{3, 8, 0.5, 1, "uniform"},
		{4, 16, 0.5, 1, "uniform"},
		{3, 8, 0.8, 0.5, "geometric"},
		{4, 32, 0.6, 0.25, "geometric"},
	}
	for _, c := range cases {
		probs := lowerbound.Lemma2Distribution(c.s, c.pLast, c.decay)
		got := lowerbound.EstimateNoSingleton(c.m, probs, trials, 1000+o.Seed+uint64(c.s))
		bound := lowerbound.Lemma2Bound(c.s)
		holds := "yes"
		if got < bound*0.85 { // Monte-Carlo slack
			holds = "NO"
		}
		tbl.AddRow(c.s, c.m, c.name, got, bound, holds)
	}
	tbl.Notes = append(tbl.Notes,
		"the lemma lower-bounds the probability that a round produces no lone broadcaster",
		"'holds' allows 15% Monte-Carlo slack below the bound")
	return tbl, nil
}

// runT1 reproduces the Theorem 1 experiment. The proof's table argument
// shows that for any regular protocol there EXISTS a participant count n
// (unknown to the protocol, which only knows the bound N) whose first clear
// broadcast is slow. We therefore sweep n over powers of two up to N,
// measure the time to the first clear broadcast for each, and report the
// worst n — which should scale like log²N/((F−t)·loglogN) as N grows.
func runT1(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T1",
		Title:   "Regular-protocol lower bound scaling (Theorem 1)",
		Columns: []string{"N", "F", "t", "worst n", "median rounds", "best n", "its median", "theory lg²N/((F−t)lglgN)", "ratio"},
	}
	ns := []int{64, 256, 1024, 4096}
	if o.quick() {
		ns = []int{16, 64}
	}
	if o.Full {
		// Full tier: one more quadrupling of the participant bound; the
		// lower-bound game sweeps n up to N, so the top point runs 16384
		// concurrent regular-protocol nodes.
		ns = []int{64, 256, 1024, 4096, 16384}
	}
	const f, tJam = 8, 2
	var theories, worsts []float64
	for _, nBound := range ns {
		reg := lowerbound.NewTrapdoorRegular(trapdoor.Params{N: nBound, F: f, T: tJam})
		worstN, bestN := 0, 0
		worstMed, bestMed := -1.0, -1.0
		for n := 2; n <= nBound; n *= 4 {
			n := n
			s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
				res, err := lowerbound.FirstClear(reg, n, f, tJam, 1<<21, o.TrialSeed(pointKey(ptT1, uint64(nBound)<<16|uint64(n)), i))
				if err != nil {
					return 0, err
				}
				o.count(res.NodeRounds)
				if !res.Happened {
					return float64(uint64(1) << 21), nil
				}
				return float64(res.Rounds), nil
			})
			if err != nil {
				return nil, err
			}
			med := s.Median
			if med > worstMed {
				worstN, worstMed = n, med
			}
			if bestMed < 0 || med < bestMed {
				bestN, bestMed = n, med
			}
		}
		theory := lowerbound.Theorem1Rounds(float64(nBound), f, tJam)
		theories = append(theories, theory)
		worsts = append(worsts, worstMed)
		tbl.AddRow(nBound, f, tJam, worstN, worstMed, bestN, bestMed, theory, worstMed/theory)
	}
	ratio := stats.FitRatio(theories, worsts)
	tbl.Notes = append(tbl.Notes,
		"weak adversary jams frequencies 1..t every round; all n nodes activated together; schedule = Trapdoor ramp for bound N",
		"the proof shows SOME n is slow: we sweep n ∈ {2, 8, 32, ...} ≤ N and report the worst (small n is worst — the ramp must climb to ~1/n)",
		"the event measured (first lone undisrupted broadcaster) is necessary for synchronization",
		"this is a lower bound: the check is measured >= c·theory everywhere (it holds with large margin)",
		"the worst-n time tracks ℓE·(lgN − lg ℓE) = Θ(log²N) with a slowly-vanishing subtractive correction, so the ratio climbs toward its asymptote from below",
		"shape check: worst-n ratio trend over N; spread = "+formatFloat(stats.RelSpread(ratio)))
	return tbl, nil
}

// runT4 reproduces the Theorem 4 experiment: the two-node rendezvous game
// against the greedy p·q adversary, swept over t. The optimal spreading
// width min(F, 2t) from the proof is verified alongside.
func runT4(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T4",
		Title:   "Two-node rendezvous lower bound (Theorem 4)",
		Columns: []string{"F", "t", "width min(F,2t)", "mean rounds", "theory Ft/(F−t)", "ratio", "bound holds", "best width k*"},
	}
	const f = 8
	ts := []int{1, 2, 3, 4, 5, 6}
	if o.quick() {
		ts = []int{1, 3}
	}
	trials := o.trials() * 10 // individual games are cheap
	var theories, means []float64
	for _, tJam := range ts {
		width := 2 * tJam
		if width > f {
			width = f
		}
		s, err := o.summarizeTrials(trials, func(i int) (float64, error) {
			reg := lowerbound.UniformRegular{M: width, P: 0.5}
			res := lowerbound.TwoNodeGame(reg, reg, f, tJam, 0, 1<<20, o.TrialSeed(pointKey(ptT4, uint64(tJam)), i))
			o.count(res.NodeRounds)
			if !res.Met {
				return float64(uint64(1) << 20), nil
			}
			return float64(res.Rounds), nil
		})
		if err != nil {
			return nil, err
		}
		mean := s.Mean
		theory := lowerbound.Theorem4Rounds(f, float64(tJam), math.Exp(-1)) // log(1/ε) = 1
		best, _, nodeRounds := lowerbound.BestUniformWidth(f, tJam, 60, 1<<16, o.Seed+uint64(tJam), o.workers())
		o.count(nodeRounds)
		theories = append(theories, theory)
		means = append(means, mean)
		holds := "yes"
		if mean < theory {
			holds = "NO"
		}
		tbl.AddRow(f, tJam, width, mean, theory, mean/theory, holds, best)
	}
	tbl.Notes = append(tbl.Notes,
		"greedy adversary disrupts the t frequencies with the largest p_j·q_j each round (Theorem 4 proof)",
		"this is a lower bound: the check is measured >= c·theory for a constant c >= 1 (the best protocol cannot beat it)",
		"the measured times grow ~8t (optimal width 2t achieves Θ(t) for t <= F/2, matching the bound's Θ(t) regime)",
		"k* is the empirically best uniform spreading width; the proof's extremal point is min(F, 2t)")
	return tbl, nil
}
