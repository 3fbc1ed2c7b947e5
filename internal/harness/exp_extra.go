package harness

import (
	"fmt"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/stats"
	"wsync/internal/trapdoor"
)

// protoStats accumulates one protocol's row for the comparison tables.
type protoStats struct {
	synced      int
	runs        int
	syncRounds  []float64
	multiLeader int
	violations  int
}

func (ps *protoStats) addRow(tbl *Table, name string) {
	med := 0.0
	if len(ps.syncRounds) > 0 {
		med = stats.Summarize(ps.syncRounds).Median
	}
	tbl.AddRow(name,
		fmt.Sprintf("%d/%d", ps.synced, ps.runs),
		med,
		ps.multiLeader,
		ps.violations,
	)
}

// protocol is one row of a paired protocol comparison: its name and the
// maker of one trial's agents.
type protocol struct {
	name string
	mk   agentMaker
}

// compareProtocols runs each protocol under the same environment and
// collects the comparison statistics. key selects the sweep-point value
// under the shared ptCompare tag: the historical grids all pass 0
// (deliberately sharing trial randomness across X2/X4/X8 rows), new grids
// pass a distinguishing value for fresh streams.
func compareProtocols(o Options, tbl *Table, key uint64, f, tJam int,
	sched sim.Schedule, mkAdv func(seed uint64) sim.Adversary,
	protos []protocol, maxRounds uint64) error {
	for _, proto := range protos {
		ps := protoStats{}
		results, err := mapTrials(o, o.trials(), func(i int) (runResult, error) {
			// Every protocol sees the same per-trial seed so the comparison
			// holds the randomness fixed across rows.
			seed := o.TrialSeed(pointKey(ptCompare, key), i)
			return checkedRun(&sim.Config{
				F:         f,
				T:         tJam,
				Seed:      seed,
				NewAgent:  proto.mk(sched.N()),
				Schedule:  sched,
				Adversary: mkAdv(seed),
				MaxRounds: maxRounds,
			})
		})
		if err != nil {
			return err
		}
		for _, rr := range results {
			ps.runs++
			if rr.res.AllSynced {
				ps.synced++
				ps.syncRounds = append(ps.syncRounds, float64(rr.res.MaxSyncLocal))
			}
			if rr.leaders != 1 {
				ps.multiLeader++
			}
			if rr.violations > 0 {
				ps.violations++
			}
		}
		ps.addRow(tbl, proto.name)
	}
	return nil
}

// runX2 compares the paper's protocols against the baselines under the
// same jamming environment.
func runX2(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "X2",
		Title:   "Baseline comparison under jamming",
		Columns: []string{"protocol", "synced", "median rounds", "multi-leader runs", "violation runs"},
	}
	const nBound, f, tJam, active = 64, 8, 2, 8
	// Staggered activation: devices that self-commit at different ages
	// hold different numberings, so the baselines' agreement failures are
	// observable (with simultaneous starts their wrong outputs coincide).
	err := compareProtocols(o, tbl, 0, f, tJam,
		sim.Staggered{Count: active, Gap: 3},
		func(seed uint64) sim.Adversary { return adversary.NewPrefix(f, tJam) },
		x2Protocols(nBound, f, tJam), 1<<21)
	if err != nil {
		return nil, err
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("environment: N=%d, n=%d staggered arrivals, F=%d, adversary jams frequencies 1..%d forever", nBound, active, f, tJam),
		"'synced' counts nodes that output SOMETHING; the violation column shows whether the outputs were consistent",
		"wakeup is fast but elects multiple conflicting leaders (agreement failures)",
		"single-frequency cannot communicate at all while its channel is jammed: every node strands on its own numbering",
		"the paper's protocols are the only ones that are both live and safe")
	return tbl, nil
}

// x2Protocols is X2's table: the paper's protocols and the baselines for a
// system of at most nBound nodes on f frequencies with budget tJam. Every
// row but single-frequency, which has no arena, batch-steps.
func x2Protocols(nBound, f, tJam int) []protocol {
	return []protocol{
		{"trapdoor", trapdoorAgents(trapdoor.Params{N: nBound, F: f, T: tJam})},
		{"samaritan", samaritanAgents(samaritan.Params{N: nBound, F: f, T: tJam})},
		{"wakeup (no competition)", func(n int) newAgentFunc { return baseline.NewWakeupArena(nBound, f, n).NewAgent }},
		{"round-robin (deterministic)", func(n int) newAgentFunc { return baseline.NewRoundRobinArena(nBound, f, n).NewAgent }},
		{"single-frequency", func(int) newAgentFunc {
			return func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent { return baseline.NewSingleFreq(nBound, r) }
		}},
	}
}

// funcObserver adapts a closure to sim.Observer.
type funcObserver struct {
	fn func(rec *sim.RoundRecord)
}

func (f funcObserver) ObserveRound(rec *sim.RoundRecord) { f.fn(rec) }

// runX3 exercises the Section 8 crash-tolerance extension: the elected
// leader crashes and the remaining nodes must detect the silence, restart
// the competition, and re-elect a leader that continues the numbering.
func runX3(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "X3",
		Title:   "Crash fault tolerance (Section 8)",
		Columns: []string{"runs", "recovered", "median re-election rounds", "mean restarts/node", "violations"},
	}
	const nBound, f, tJam, active = 16, 8, 2, 4
	p := trapdoor.Params{
		N: nBound, F: f, T: tJam,
		FaultTolerant:   true,
		CommitThreshold: 2,
	}
	crashAt := 3 * p.TotalRounds() // well after election and dissemination
	maxRounds := crashAt + 40*p.EffectiveLeaderTimeout() + 4*p.TotalRounds()

	// x3Trial is one trial's outcome: the re-election delay after the
	// crash (0 = none), the mean restarts per survivor, and the survivors'
	// property violations.
	type x3Trial struct {
		reelect    uint64
		restarts   float64
		violations int
	}
	runs := o.trials()
	outs, err := mapTrials(o, runs, func(i int) (x3Trial, error) {
		// The survivors batch-step from the arena; node 0 steps alone
		// behind its crash wrapper.
		arena := trapdoor.MustNewArena(p, active)
		nodes := make([]*trapdoor.Node, active)
		var reelectedAt uint64
		check := props.NewChecker(active)
		scan := funcObserver{fn: func(rec *sim.RoundRecord) {
			if reelectedAt != 0 || rec.Round <= crashAt {
				return
			}
			for id := 1; id < active; id++ { // node 0 is the crashed one
				if nodes[id] != nil && nodes[id].IsLeader() {
					reelectedAt = rec.Round
					return
				}
			}
		}}
		cfg := &sim.Config{
			F:    f,
			T:    tJam,
			Seed: o.TrialSeed(pointKey(ptX3, 0), i),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n := arena.NewAgent(id, activation, r).(*trapdoor.Node)
				nodes[id] = n
				if id == 0 {
					// Node 0 is activated first (ties by id): it wins the
					// first election, then dies.
					return &adversary.CrashAgent{Inner: n, CrashAt: crashAt}
				}
				return n
			},
			Schedule:       sim.Staggered{Count: active, Gap: 2},
			Adversary:      adversary.NewPrefix(f, tJam),
			MaxRounds:      maxRounds,
			RunToMaxRounds: true,
			Observers:      []sim.Observer{scan, check},
		}
		if _, err := sim.Run(cfg); err != nil {
			return x3Trial{}, err
		}
		var out x3Trial
		if reelectedAt != 0 {
			out.reelect = reelectedAt - crashAt
		}
		totalRestarts := 0
		for id := 1; id < active; id++ {
			totalRestarts += nodes[id].Restarts()
		}
		out.restarts = float64(totalRestarts) / float64(active-1)
		// Exclude the crashed node's forced ⊥ reversion (it reports ⊥
		// after death by design); count only violations on survivors.
		for _, v := range check.Violations() {
			if v.Node != 0 {
				out.violations++
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	recovered, violations := 0, 0
	var reelect []float64
	var restarts []float64
	for _, out := range outs {
		if out.reelect != 0 {
			recovered++
			reelect = append(reelect, float64(out.reelect))
		}
		restarts = append(restarts, out.restarts)
		violations += out.violations
	}
	med := 0.0
	if len(reelect) > 0 {
		med = stats.Summarize(reelect).Median
	}
	tbl.AddRow(runs, fmt.Sprintf("%d/%d", recovered, runs), med,
		stats.Mean(restarts), violations)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("leader (first-activated node) crashes at local round %d; timeout %d rounds", crashAt, p.EffectiveLeaderTimeout()),
		"recovered = some surviving node re-won the competition after the crash",
		"survivors keep their committed numbering across the restart (Synch Commit preserved)")
	return tbl, nil
}

// runX4 runs the ablations: remove the knockout rule, remove samaritan
// help, and sweep the epoch-length constant.
func runX4(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "X4",
		Title:   "Ablations: knockout, samaritan help, constants",
		Columns: []string{"variant", "synced", "median rounds", "multi-leader runs", "violation runs"},
	}
	const nBound, f, tJam, active = 64, 8, 2, 8
	err := compareProtocols(o, tbl, 0, f, tJam,
		sim.Staggered{Count: active, Gap: 3},
		func(seed uint64) sim.Adversary { return adversary.NewPrefix(f, tJam) },
		x4TrapdoorProtocols(nBound, f, tJam), 1<<21)
	if err != nil {
		return nil, err
	}

	// Samaritan-help ablation in the good case: without reports, every
	// execution must ride the slow fallback.
	const gsN, gsF, gsT, gsActive = 16, 16, 8, 4
	err = compareProtocols(o, tbl, 0, gsF, gsT,
		sim.Simultaneous{Count: gsActive},
		func(seed uint64) sim.Adversary { return adversary.NewPrefix(gsF, 1) },
		x4SamaritanProtocols(gsN, gsF, gsT), 1<<23)
	if err != nil {
		return nil, err
	}
	tbl.Notes = append(tbl.Notes,
		"no knockout → every survivor becomes leader: agreement collapses (why the trapdoor exists)",
		"short epochs are faster but raise the multi-leader rate; long epochs buy safety with time",
		"no samaritan help → the optimistic portion can never elect: good executions pay the full fallback cost")
	return tbl, nil
}

// x4TrapdoorProtocols is X4's Trapdoor half: the paper's protocol, its
// knockout ablation and two epoch-length constants.
func x4TrapdoorProtocols(nBound, f, tJam int) []protocol {
	return []protocol{
		{"trapdoor (paper)", trapdoorAgents(trapdoor.Params{N: nBound, F: f, T: tJam})},
		{"trapdoor, no knockout", trapdoorAgents(trapdoor.Params{N: nBound, F: f, T: tJam, AblationNoKnockout: true})},
		{"trapdoor, CEpoch=1 (short epochs)", trapdoorAgents(trapdoor.Params{N: nBound, F: f, T: tJam, CEpoch: 1, CFinal: 1})},
		{"trapdoor, CEpoch=12 (long epochs)", trapdoorAgents(trapdoor.Params{N: nBound, F: f, T: tJam, CEpoch: 12, CFinal: 6})},
	}
}

// x4SamaritanProtocols is X4's Good Samaritan half: the paper's protocol
// and its no-help ablation.
func x4SamaritanProtocols(nBound, f, tJam int) []protocol {
	return []protocol{
		{"samaritan (paper), t'=1", samaritanAgents(samaritan.Params{N: nBound, F: f, T: tJam})},
		{"samaritan, no help, t'=1", samaritanAgents(samaritan.Params{N: nBound, F: f, T: tJam, AblationNoHelp: true})},
	}
}
