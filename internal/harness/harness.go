package harness

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// Options tunes experiment size. The zero value means defaults.
type Options struct {
	// Trials is the number of repetitions per sweep point; 0 means
	// DefaultTrials.
	Trials int
	// Seed offsets all experiment seeds, for independent replications.
	Seed uint64
	// Quick shrinks sweeps to their smallest meaningful grids (used by CI
	// and -short benchmarks).
	Quick bool
	// Full expands sweeps to the large grids the frequency-indexed medium
	// path makes tractable: N up to 16384, F up to 128, and dense t
	// grids (the wexp -full tier). Experiments without a full grid run
	// their default one. Full and Quick are mutually exclusive; if both
	// are set, Full wins.
	Full bool
	// Parallelism is the number of worker goroutines the runner fans each
	// sweep point's trials out across; 0 means one per CPU. Results are
	// bit-identical at every parallelism level (see runner.go).
	Parallelism int
	// NoBatch disables the engines' devirtualized batch-stepping path in
	// the X10 dispatch-throughput experiments, forcing per-node virtual
	// dispatch there (sim.Config.NoBatch). Only X10 reads it: every other
	// experiment batch-steps its arena-built nodes regardless. Simulation
	// results are bit-identical either way; only wall time moves. X10
	// records the mode in its tables so a benchdiff between a -nobatch
	// report and a normal one reads as the devirtualization speedup.
	NoBatch bool

	// nodeRounds is the node-round meter of one experiment run
	// (Experiment.RunMetered): every engine run the experiment makes adds
	// its node-rounds here. Copies of the Options share it, so concurrent
	// trials add to the same count. Nil counts nothing.
	nodeRounds *atomic.Uint64
}

// count adds one engine run's node-rounds to the meter, if any.
func (o Options) count(n uint64) {
	if o.nodeRounds != nil {
		o.nodeRounds.Add(n)
	}
}

// DefaultTrials is the per-point repetition count when Options.Trials is 0.
const DefaultTrials = 20

func (o Options) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick && !o.Full {
		return 5
	}
	return DefaultTrials
}

// quick reports whether the shrunk grids should be used; Full overrides.
func (o Options) quick() bool { return o.Quick && !o.Full }

// EffectiveTrials returns the per-sweep-point repetition count the
// experiments will actually use after defaulting (some experiments scale
// it further, e.g. the agreement sweeps multiply it). Benchmark reports
// record it so artifacts remain comparable if the defaults ever change.
func (o Options) EffectiveTrials() int { return o.trials() }

// EffectiveParallelism returns the worker count the runner will actually
// use after defaulting.
func (o Options) EffectiveParallelism() int { return o.workers() }

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// RunMetered runs e and returns its table with the node-rounds its engine
// runs executed: exactly what the engines add to their process-global
// TotalNodeRounds counters during the run, but counted for this run
// alone, so experiments may run side by side in one process.
func (e Experiment) RunMetered(opt Options) (*Table, uint64, error) {
	opt.nodeRounds = new(atomic.Uint64)
	tbl, err := e.Run(opt)
	return tbl, opt.nodeRounds.Load(), err
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "F1", Title: "Trapdoor epoch schedule (Figure 1)", Run: runF1},
		{ID: "F2", Title: "Good Samaritan round structure (Figure 2)", Run: runF2},
		{ID: "L2", Title: "Balls-in-bins no-singleton bound (Lemma 2)", Run: runL2},
		{ID: "T1", Title: "Regular-protocol lower bound scaling (Theorem 1)", Run: runT1},
		{ID: "T4", Title: "Two-node rendezvous lower bound (Theorem 4)", Run: runT4},
		{ID: "T10a", Title: "Trapdoor synchronization time vs N (Theorem 10)", Run: runT10a},
		{ID: "T10b", Title: "Trapdoor synchronization time vs t (Theorem 10)", Run: runT10b},
		{ID: "T10c", Title: "Trapdoor agreement / leader uniqueness (Theorem 10)", Run: runT10c},
		{ID: "L9", Title: "Broadcast weight self-regulation (Lemma 9)", Run: runL9},
		{ID: "T18a", Title: "Good Samaritan adaptive runtime vs t' (Theorem 18)", Run: runT18a},
		{ID: "T18b", Title: "Good Samaritan fallback runtime (Theorem 18)", Run: runT18b},
		{ID: "X1", Title: "Crossover: Trapdoor vs Good Samaritan", Run: runX1},
		{ID: "X2", Title: "Baseline comparison under jamming", Run: runX2},
		{ID: "X3", Title: "Crash fault tolerance (Section 8)", Run: runX3},
		{ID: "X4", Title: "Ablations: knockout, samaritan help, constants", Run: runX4},
		{ID: "X5", Title: "Unslotted transformation (Section 8)", Run: runX5},
		{ID: "X6", Title: "Replicated log on synchronized rounds (Section 8)", Run: runX6},
		{ID: "X7", Title: "Multi-hop relay synchronization (Section 8)", Run: runX7},
		{ID: "X8", Title: "Adversary gallery (model robustness)", Run: runX8},
		{ID: "X9", Title: "Dynamic topologies: synchronization under churn (X9)", Run: runX9},
		{ID: "R1", Title: "Two-party rendezvous vs band size and blocked fraction (R1)", Run: runR1},
		{ID: "R2", Title: "k-party rendezvous scaling under churn (R2)", Run: runR2},
		{ID: "R3", Title: "Rendezvous strategy gallery vs jammer gallery (R3)", Run: runR3},
		{ID: "X10a", Title: "Dispatch throughput: Trapdoor, dense band (X10)", Run: runX10a},
		{ID: "X10b", Title: "Dispatch throughput: Good Samaritan, dense band (X10)", Run: runX10b},
		{ID: "X10c", Title: "Dispatch throughput: round-robin baseline, dense band (X10)", Run: runX10c},
	}
}

// IDs returns every experiment id in presentation order — the order an
// unselected run executes in, and the catalogue order sharded reports
// merge back into (internal/shard).
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// WeightObserver tracks the broadcast weight W(r) = Σ_u p_u^r over a run
// (Definition 7 / Lemma 9). Attach it together with Config.ProbeWeights.
type WeightObserver struct {
	Max      float64
	MaxRound uint64
	Sum      float64
	Rounds   uint64
}

var _ sim.Observer = (*WeightObserver)(nil)

// ObserveRound implements sim.Observer.
func (w *WeightObserver) ObserveRound(rec *sim.RoundRecord) {
	if rec.Weights == nil {
		return
	}
	total := 0.0
	for _, p := range rec.Weights {
		total += p
	}
	if total > w.Max {
		w.Max = total
		w.MaxRound = rec.Round
	}
	w.Sum += total
	w.Rounds++
}

// MeanWeight returns the average per-round broadcast weight.
func (w *WeightObserver) MeanWeight() float64 {
	if w.Rounds == 0 {
		return 0
	}
	return w.Sum / float64(w.Rounds)
}

// runResult bundles what the sweep experiments need from one simulation.
type runResult struct {
	res        *sim.Result
	violations int
	leaders    int
}

// simRun is sim.Run with the run's node-rounds added to o's meter.
func (o Options) simRun(cfg *sim.Config) (*sim.Result, error) {
	res, err := sim.Run(cfg)
	if err == nil {
		o.count(res.Stats.NodeRounds)
	}
	return res, err
}

// checkedRun runs cfg with a Section 3 property checker over its
// schedule's nodes observing every round.
func (o Options) checkedRun(cfg *sim.Config) (runResult, error) {
	check := props.NewChecker(cfg.Schedule.N())
	cfg.Observers = append(cfg.Observers, check)
	res, err := o.simRun(cfg)
	if err != nil {
		return runResult{}, err
	}
	return runResult{res: res, violations: check.Count(), leaders: res.Leaders}, nil
}

// newAgentFunc is the signature of sim.Config.NewAgent.
type newAgentFunc = func(sim.NodeID, uint64, *rng.Rand) sim.Agent

// agentMaker returns the NewAgent of one engine run of n nodes. An
// arena-backed maker builds a fresh arena on every call: an arena's slots
// belong to one run, so concurrent trials must never share one.
type agentMaker func(n int) newAgentFunc

// trapdoorAgents makes Trapdoor nodes from one arena per engine run.
func trapdoorAgents(p trapdoor.Params) agentMaker {
	return func(n int) newAgentFunc { return trapdoor.MustNewArena(p, n).NewAgent }
}

// samaritanAgents makes Good Samaritan nodes from one arena per engine run.
func samaritanAgents(p samaritan.Params) agentMaker {
	return func(n int) newAgentFunc { return samaritan.MustNewArena(p, n).NewAgent }
}

func checkFailf(format string, args ...any) error {
	return fmt.Errorf("harness: "+format, args...)
}
