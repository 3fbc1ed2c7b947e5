package harness

import (
	"fmt"
	"math"

	"wsync/internal/adversary"
	"wsync/internal/lowerbound"
	"wsync/internal/rendezvous"
	"wsync/internal/stats"
)

// exp_rendezvous.go is the R-series: the whitespace rendezvous workload
// family (Azar et al.; Theorem 4's game generalized) running on the shared
// medium resolver through internal/rendezvous.
//
//	R1  two-party meeting time vs band size and blocked fraction
//	R2  k-party all-meet scaling under churn
//	R3  strategy gallery vs jammer gallery
//
// All three follow the tier convention: -quick shrinks to smoke grids,
// -full widens R1 to F=128, R2 to k=32, and R3 to the wide band.

// runR1 sweeps the two-party game over band size F and statically blocked
// fraction β (channels 1..⌊βF⌋ closed for both parties), with both parties
// spreading uniformly over the Azar-optimal width min(F, 2t). The measured
// meeting times track the Theorem 4 form Ft/(F−t).
func runR1(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "R1",
		Title:   "Two-party rendezvous vs band size and blocked fraction (R1)",
		Columns: []string{"F", "t", "blocked frac", "width", "mean rounds", "median", "theory Ft/(F−t)", "ratio"},
	}
	fs := []int{8, 16, 32}
	fracs := []float64{0.125, 0.25, 0.5}
	if o.quick() {
		fs = []int{8}
		fracs = []float64{0.25}
	}
	if o.Full {
		// Full tier: the wide band. Point keys encode (F, t) directly, so
		// widening the grid never disturbs the default points' trial seeds.
		fs = []int{8, 16, 32, 64, 128}
		fracs = []float64{0.125, 0.25, 0.5, 0.75}
	}
	trials := o.trials() * 10 // individual games are cheap
	const maxRounds = 1 << 20
	for _, f := range fs {
		for _, frac := range fracs {
			tJam := int(frac * float64(f))
			if tJam < 1 {
				tJam = 1
			}
			width := rendezvous.OptimalWidth(f, tJam)
			s, err := o.summarizeTrials(trials, func(i int) (float64, error) {
				res, err := rendezvous.Run(&rendezvous.Config{
					F: f,
					Parties: []rendezvous.Party{
						{Strategy: width},
						{Strategy: width},
					},
					Jammer:    rendezvous.NewPrefix(f, tJam),
					MaxRounds: maxRounds,
					Seed:      o.TrialSeed(pointKey(ptR1, uint64(f)<<16|uint64(tJam)), i),
				})
				if err != nil {
					return 0, err
				}
				if res.FirstMeet == 0 {
					return float64(uint64(maxRounds)), nil
				}
				return float64(res.FirstMeet), nil
			})
			if err != nil {
				return nil, err
			}
			theory := lowerbound.Theorem4Rounds(float64(f), float64(tJam), math.Exp(-1))
			tbl.AddRow(f, tJam, frac, width.M, s.Mean, s.Median, theory, s.Mean/theory)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"static whitespace band: channels 1..t blocked for both parties (virtual jam nodes on the shared medium)",
		"both parties spread uniformly over the Azar-optimal width min(F, 2t), transmitting w.p. 1/2",
		"meeting = one party transmits, the other listens, same unblocked channel — a clean reception on the resolver")
	if o.Full {
		tbl.Notes = append(tbl.Notes, "full tier: two-party meeting time swept to F=128")
	}
	return tbl, nil
}

// runR2 scales the party count: k parties wake staggered onto a churning
// band (a fresh random t-subset blocked each round) and must all meet —
// pairwise clean receptions merge components until one remains.
func runR2(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "R2",
		Title:   "k-party rendezvous scaling under churn (R2)",
		Columns: []string{"k", "F", "t", "median all-met", "p95", "mean meetings"},
	}
	ks := []int{2, 4, 8, 16}
	if o.quick() {
		ks = []int{2, 4}
	}
	if o.Full {
		ks = []int{2, 4, 8, 16, 32}
	}
	const f, tJam = 16, 4
	const maxRounds = 1 << 20
	width := rendezvous.OptimalWidth(f, tJam)
	for _, k := range ks {
		k := k
		type trial struct {
			allMet   float64
			meetings float64
		}
		outs, err := mapTrials(o, o.trials(), func(i int) (trial, error) {
			parties := make([]rendezvous.Party, k)
			for p := range parties {
				parties[p] = rendezvous.Party{Strategy: width, Wake: uint64(1 + 3*p)}
			}
			res, err := rendezvous.Run(&rendezvous.Config{
				F:       f,
				Parties: parties,
				Jammer: rendezvous.NewChurn(f, adversary.NewRandom(f, tJam,
					o.TrialSeed(pointKey(ptR2Adversary, uint64(k)), i))),
				MaxRounds: maxRounds,
				Seed:      o.TrialSeed(pointKey(ptR2Sim, uint64(k)), i),
			})
			if err != nil {
				return trial{}, err
			}
			if res.AllMet == 0 {
				return trial{}, checkFailf("R2: k=%d trial %d never all met", k, i)
			}
			return trial{allMet: float64(res.AllMet), meetings: float64(res.Meetings)}, nil
		})
		if err != nil {
			return nil, err
		}
		allMet := make([]float64, len(outs))
		meetings := 0.0
		for i, tr := range outs {
			allMet[i] = tr.allMet
			meetings += tr.meetings
		}
		s := stats.Summarize(allMet)
		tbl.AddRow(k, f, tJam, s.Median, s.P95, meetings/float64(len(outs)))
	}
	tbl.Notes = append(tbl.Notes,
		"parties wake staggered (3-round gaps); a random t-subset of the band churns every round",
		"all-met = the pairwise meeting graph connects all k parties (union-find over clean receptions)",
		"all-met time grows slowly with k: later wakers join a band already dense with transmitters")
	if o.Full {
		tbl.Notes = append(tbl.Notes, "full tier: k-party scaling swept to k=32")
	}
	return tbl, nil
}

// runR3 is the gallery cross: every rendezvous strategy against every
// jammer at the same budget. Randomized strategies survive everything;
// deterministic hopping starves under product jammers and resonant
// sweepers, which the met-fraction column makes visible.
func runR3(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "R3",
		Title:   "Rendezvous strategy gallery vs jammer gallery (R3)",
		Columns: []string{"strategy", "jammer", "met frac", "median rounds", "mean rounds"},
	}
	f, tJam := 8, 2
	key := uint64(0)
	if o.Full {
		// Full tier: the wide band, with its own trial streams (fresh key).
		f, tJam = 64, 24
		key = uint64(f)
	}
	const maxRounds = 1 << 14
	width := rendezvous.OptimalWidth(f, tJam)
	strategies := []struct {
		name string
		mk   func() [2]rendezvous.Strategy
	}{
		{"width-2t", func() [2]rendezvous.Strategy { return [2]rendezvous.Strategy{width, width} }},
		{"full-band", func() [2]rendezvous.Strategy {
			u := rendezvous.Uniform{M: f, P: 0.5}
			return [2]rendezvous.Strategy{u, u}
		}},
		{"stay-ramble", func() [2]rendezvous.Strategy {
			return [2]rendezvous.Strategy{
				&rendezvous.StayRamble{M: f, Dwell: 8, PStay: 0.5, P: 0.5},
				&rendezvous.StayRamble{M: f, Dwell: 8, PStay: 0.5, P: 0.5},
			}
		}},
		{"oblivious", func() [2]rendezvous.Strategy {
			return [2]rendezvous.Strategy{
				rendezvous.Oblivious{M: f, Start: f / 2, Stride: 0, P: 0.5},
				rendezvous.Oblivious{M: f, Start: 0, Stride: 1, P: 0.5},
			}
		}},
		{"unknown-t", func() [2]rendezvous.Strategy {
			s := lowerbound.StrategyFromRegular(lowerbound.UnknownT{F: f, Dwell: 8})
			return [2]rendezvous.Strategy{s, s}
		}},
	}
	jammers := []struct {
		name string
		mk   func(seed uint64) rendezvous.Jammer
	}{
		{"none", func(uint64) rendezvous.Jammer { return nil }},
		{"prefix", func(uint64) rendezvous.Jammer { return rendezvous.NewPrefix(f, tJam) }},
		{"random", func(seed uint64) rendezvous.Jammer {
			return rendezvous.NewChurn(f, adversary.NewRandom(f, tJam, seed))
		}},
		{"sweep", func(uint64) rendezvous.Jammer {
			return rendezvous.NewChurn(f, adversary.NewSweep(f, tJam, 1))
		}},
		{"greedy", func(uint64) rendezvous.Jammer { return rendezvous.NewGreedy(f, tJam) }},
	}
	if o.quick() {
		strategies = strategies[:2]
		jammers = []struct {
			name string
			mk   func(seed uint64) rendezvous.Jammer
		}{jammers[0], jammers[4]}
	}
	trials := o.trials() * 3
	for si, sc := range strategies {
		for ji, jc := range jammers {
			sc, jc := sc, jc
			point := pointKey(ptR3Sim, key<<16|uint64(si)<<8|uint64(ji))
			jamPoint := pointKey(ptR3Adversary, key<<16|uint64(si)<<8|uint64(ji))
			rounds, err := mapTrials(o, trials, func(i int) (float64, error) {
				pair := sc.mk()
				res, err := rendezvous.Run(&rendezvous.Config{
					F: f,
					Parties: []rendezvous.Party{
						{Strategy: pair[0]},
						{Strategy: pair[1]},
					},
					Jammer:    jc.mk(o.TrialSeed(jamPoint, i)),
					MaxRounds: maxRounds,
					Seed:      o.TrialSeed(point, i),
				})
				if err != nil {
					return 0, err
				}
				if res.FirstMeet == 0 {
					return -1, nil // starved within the budget
				}
				return float64(res.FirstMeet), nil
			})
			if err != nil {
				return nil, err
			}
			met := 0
			clamped := make([]float64, len(rounds))
			for i, v := range rounds {
				if v < 0 {
					clamped[i] = float64(uint64(maxRounds))
					continue
				}
				met++
				clamped[i] = v
			}
			s := stats.Summarize(clamped)
			tbl.AddRow(sc.name, jc.name, fmt.Sprintf("%.2f", float64(met)/float64(trials)), s.Median, s.Mean)
		}
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("every cell: the same band F=%d, budget t=%d, round cap %d", f, tJam, maxRounds),
		"unmet trials count the full round cap in the mean/median columns",
		"deterministic hopping (oblivious) starves under the greedy product jammer and resonates with the sweeper: its alignment channel is periodic, so the sweep window either never or always covers it",
		"unknown-t cycles spreading widths 2,4,...,F (Meier et al.), paying an O(lg F) factor over the t-aware width")
	if o.Full {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("full tier: gallery on the wide band F=%d, t=%d", f, tJam))
	}
	return tbl, nil
}
