package harness

import (
	"fmt"

	"wsync/internal/adversary"
	"wsync/internal/lowerbound"
	"wsync/internal/sim"
	"wsync/internal/stats"
	"wsync/internal/trapdoor"
)

// trapdoorRun executes one Trapdoor simulation and returns the maximum
// per-node synchronization time plus correctness accounting.
func (o Options) trapdoorRun(p trapdoor.Params, n int, adv sim.Adversary, seed uint64, maxRounds uint64) (runResult, error) {
	return o.checkedRun(trapdoorConfig(p, n, adv, seed, maxRounds))
}

// trapdoorConfig is trapdoorRun's engine run: n Trapdoor nodes activated
// together, built from one arena of their own.
func trapdoorConfig(p trapdoor.Params, n int, adv sim.Adversary, seed uint64, maxRounds uint64) *sim.Config {
	return &sim.Config{
		F:         p.F,
		T:         p.T,
		Seed:      seed,
		NewAgent:  trapdoor.MustNewArena(p, n).NewAgent,
		Schedule:  sim.Simultaneous{Count: n},
		Adversary: adv,
		MaxRounds: maxRounds,
	}
}

// runT10a sweeps N at fixed F, t: Trapdoor synchronization time should
// scale like F/(F−t)·log²N + Ft/(F−t)·logN.
func runT10a(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T10a",
		Title:   "Trapdoor synchronization time vs N (Theorem 10)",
		Columns: []string{"N", "n", "F", "t", "median rounds", "p95", "theory", "ratio"},
	}
	ns := []int{16, 64, 256, 1024}
	if o.quick() {
		ns = []int{16, 64}
	}
	if o.Full {
		// The full tier climbs to the participant bounds the log²N shape
		// needs room to show; tractable because the indexed medium path
		// makes per-round cost independent of N.
		ns = []int{16, 64, 256, 1024, 4096, 16384}
	}
	const f, tJam, active = 8, 2, 8
	var theories, medians []float64
	for _, n := range ns {
		p := trapdoor.Params{N: n, F: f, T: tJam}
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.trapdoorRun(p, active, adversary.NewPrefix(f, tJam), o.TrialSeed(pointKey(ptT10a, uint64(n)), i), 1<<21)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("T10a: N=%d trial %d did not synchronize", n, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		theory := lowerbound.Theorem10Rounds(float64(n), f, tJam)
		theories = append(theories, theory)
		medians = append(medians, s.Median)
		tbl.AddRow(n, active, f, tJam, s.Median, s.P95, theory, s.Median/theory)
	}
	ratio := stats.FitRatio(theories, medians)
	tbl.Notes = append(tbl.Notes,
		"weak adversary jams 1..t; time is the worst per-node local synchronization round",
		"shape check: ratio spread = "+formatFloat(stats.RelSpread(ratio)))
	return tbl, nil
}

// runT10b sweeps t at fixed F, N: the F/(F−t) and Ft/(F−t) factors should
// appear.
func runT10b(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T10b",
		Title:   "Trapdoor synchronization time vs t (Theorem 10)",
		Columns: []string{"N", "F", "t", "F'", "median rounds", "theory", "ratio"},
	}
	ts := []int{1, 2, 3, 4, 5, 6, 7}
	f := 8
	if o.quick() {
		ts = []int{1, 4}
	}
	if o.Full {
		// Full tier: the wide band. A dense t grid climbing to near
		// saturation (t = 120 of F = 128) is where the F/(F−t) blow-up
		// stops being a constant; the indexed medium path keeps a round's
		// cost independent of the 128 frequencies.
		f = 128
		ts = []int{8, 16, 32, 48, 64, 80, 96, 112, 120}
	}
	const nBound, active = 64, 8
	var theories, medians []float64
	for _, tJam := range ts {
		// The default/quick tiers keep their historical seed key (bare
		// tJam) so T10b stays comparable across BENCH_*.json artifacts;
		// the full tier is new and mixes f in to get fresh streams.
		key := uint64(tJam)
		if o.Full {
			key = uint64(f)<<16 | uint64(tJam)
		}
		p := trapdoor.Params{N: nBound, F: f, T: tJam}
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			rr, err := o.trapdoorRun(p, active, adversary.NewPrefix(f, tJam), o.TrialSeed(pointKey(ptT10b, key), i), 1<<22)
			if err != nil {
				return 0, err
			}
			if !rr.res.AllSynced {
				return 0, checkFailf("T10b: t=%d trial %d did not synchronize", tJam, i)
			}
			return float64(rr.res.MaxSyncLocal), nil
		})
		if err != nil {
			return nil, err
		}
		theory := lowerbound.Theorem10Rounds(nBound, float64(f), float64(tJam))
		theories = append(theories, theory)
		medians = append(medians, s.Median)
		tbl.AddRow(nBound, f, tJam, p.FPrime(), s.Median, theory, s.Median/theory)
	}
	ratio := stats.FitRatio(theories, medians)
	tbl.Notes = append(tbl.Notes,
		"runtime blows up as t approaches F, following F/(F−t) (who wins: more frequencies)",
		"Theorem 10 is an upper bound: the check is measured <= c·theory throughout; a falling ratio as t grows is consistent",
		"ratio max = "+formatFloat(ratio.Max)+", spread = "+formatFloat(stats.RelSpread(ratio)))
	return tbl, nil
}

// runT10c measures agreement: across many runs, how often does more than
// one leader emerge or any property violation occur? Theorem 10 promises
// w.h.p. (≥ 1 − 1/N) correctness.
func runT10c(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T10c",
		Title:   "Trapdoor agreement / leader uniqueness (Theorem 10)",
		Columns: []string{"N", "n", "F", "t", "runs", "multi-leader", "violations", "failure rate", "target 1/N"},
	}
	configs := []struct {
		nBound, active, f, tJam int
	}{
		{64, 8, 8, 2},
		{64, 16, 8, 3},
		{256, 8, 8, 2},
	}
	if o.quick() {
		configs = configs[:1]
	}
	runs := o.trials() * 5
	for _, c := range configs {
		p := trapdoor.Params{N: c.nBound, F: c.f, T: c.tJam}
		multi, viol := 0, 0
		results, err := mapTrials(o, runs, func(i int) (float64, error) {
			rr, err := o.trapdoorRun(p, c.active, adversary.NewPrefix(c.f, c.tJam),
				o.TrialSeed(pointKey(ptT10c, uint64(c.nBound)<<16|uint64(c.active)), i), 1<<21)
			if err != nil {
				return 0, err
			}
			code := 0.0
			if rr.leaders != 1 {
				code += 1
			}
			if rr.violations > 0 {
				code += 2
			}
			return code, nil
		})
		if err != nil {
			return nil, err
		}
		for _, code := range results {
			if code == 1 || code == 3 {
				multi++
			}
			if code >= 2 {
				viol++
			}
		}
		fails := multi
		if viol > fails {
			fails = viol
		}
		tbl.AddRow(c.nBound, c.active, c.f, c.tJam, runs, multi, viol,
			float64(fails)/float64(runs), 1/float64(c.nBound))
	}
	tbl.Notes = append(tbl.Notes,
		"failure = more than one leader, or any commit/correctness/agreement violation",
		"theorem guarantees failure probability at most ~1/N")
	return tbl, nil
}

// l9Case is one L9 configuration: active staggered arrivals under a
// participant bound, band and budget, with or without the knockout rule.
type l9Case struct {
	active, nBound, f, tJam int
	noKnockout              bool
}

func (c l9Case) params() trapdoor.Params {
	return trapdoor.Params{N: c.nBound, F: c.f, T: c.tJam, AblationNoKnockout: c.noKnockout}
}

// l9Config is one L9 engine run: active Trapdoor nodes from one arena of
// their own, arriving staggered and run past the competition with their
// broadcast weights probed into w.
func l9Config(p trapdoor.Params, active int, seed uint64, w *WeightObserver) *sim.Config {
	return &sim.Config{
		F:        p.F,
		T:        p.T,
		Seed:     seed,
		NewAgent: trapdoor.MustNewArena(p, active).NewAgent,
		// Staggered arrival piles younger contenders onto older ones —
		// the load pattern the lemma is about.
		Schedule:       sim.Staggered{Count: active, Gap: 4},
		Adversary:      adversary.NewPrefix(p.F, p.T),
		MaxRounds:      p.TotalRounds() + uint64(active)*4 + 2000,
		RunToMaxRounds: true,
		Observers:      []sim.Observer{w},
		ProbeWeights:   true,
	}
}

// runL9 measures the broadcast weight W(r) over Trapdoor executions and
// compares its maximum against the 6F' bound of Lemma 9. The knockout-off
// ablation rows show that the bound is the knockout feedback loop at work,
// not an accident of the probability ramp: without knockouts every node
// rides the ramp to 1/2 and the weight grows to n/2.
func runL9(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "L9",
		Title:   "Broadcast weight self-regulation (Lemma 9)",
		Columns: []string{"knockout", "n", "N", "F", "t", "F'", "max W(r)", "bound 6F'", "mean W(r)", "within bound"},
	}
	configs := []l9Case{
		{64, 64, 8, 2, false},
		{64, 64, 8, 2, true},
		{32, 32, 8, 3, false},
		{64, 64, 4, 1, false},
		{64, 64, 4, 1, true},
	}
	if o.quick() {
		configs = configs[:2]
	}
	// All configs' trials go to the pool as one batch; the fold below
	// walks them in (config, trial) order, so its float sums do not depend
	// on scheduling.
	const trials = 3
	type weights struct{ max, mean float64 }
	runs, err := mapTrials(o, len(configs)*trials, func(k int) (weights, error) {
		c, trial := configs[k/trials], k%trials
		w := &WeightObserver{}
		seed := o.TrialSeed(pointKey(ptL9, uint64(c.active)<<16|uint64(c.f)<<8|uint64(c.tJam)<<1|boolBit(c.noKnockout)), trial)
		if _, err := o.simRun(l9Config(c.params(), c.active, seed, w)); err != nil {
			return weights{}, err
		}
		return weights{w.Max, w.MeanWeight()}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range configs {
		p := c.params()
		maxW, meanW := 0.0, 0.0
		for _, w := range runs[ci*trials : (ci+1)*trials] {
			maxW = max(maxW, w.max)
			meanW += w.mean / trials
		}
		bound := 6 * float64(p.FPrime())
		within := "yes"
		if maxW > bound {
			within = "NO (expected for ablation)"
			if !c.noKnockout {
				within = "NO"
			}
		}
		knockout := "on"
		if c.noKnockout {
			knockout = "OFF"
		}
		tbl.AddRow(knockout, c.active, c.nBound, c.f, c.tJam, p.FPrime(),
			fmt.Sprintf("%.2f", maxW), bound, fmt.Sprintf("%.2f", meanW), within)
	}
	tbl.Notes = append(tbl.Notes,
		"W(r) = Σ_u P[u broadcasts in r] over active nodes (Definition 7); staggered arrivals, run past the competition",
		"Lemma 9: W(r) < 6F' w.h.p. while at most one leader exists — the knockout feedback loop keeps the medium uncongested",
		"knockout OFF rows: the same ramp without the feedback loop climbs toward n/2, far beyond the bound")
	return tbl, nil
}
