package harness

import (
	"runtime"

	"wsync/internal/pool"
	"wsync/internal/rng"
	"wsync/internal/stats"
)

// runner.go is the experiment runner: it fans a sweep point's Monte-Carlo
// trials out across worker goroutines (the shared work-stealing scheduler
// in internal/pool) with mapTrials, the one trial fan-out, and folds their
// measurements in trial order.
//
// Results are bit-identical at every parallelism level. Two invariants
// make that true:
//
//  1. Trial identity is fixed before execution: every trial's RNG seed is
//     derived from (Options.Seed, sweep-point key, trial index) alone via
//     rng splitting (TrialSeed), never from which worker runs it or when.
//  2. Aggregation follows trial order: per-trial outputs land in slots
//     indexed by trial and are folded in that order, and accumulator
//     summaries read the value histogram in ascending order, so
//     scheduling cannot reorder any floating-point reduction.

// workers returns the effective worker count: Parallelism if set,
// otherwise one worker per CPU.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// TrialSeed derives the simulation seed for one trial of one sweep point.
// The derivation goes through two rng splits, so nearby point keys and
// trial indices yield statistically independent streams, and the result
// depends only on (Seed, point, trial) — the anchor of the runner's
// parallelism-independence guarantee.
func (o Options) TrialSeed(point uint64, trial int) uint64 {
	return rng.New(o.Seed).Split(point).Split(uint64(trial)).Uint64()
}

// pointKey namespaces a sweep-point key under a per-experiment tag so no
// two experiments (or two sweeps within one) can collide into the same
// TrialSeed stream, no matter how their local point values are computed.
// Experiments that deliberately share randomness across rows (the paired
// protocol comparisons) share a tag on purpose.
func pointKey(tag uint8, v uint64) uint64 {
	return uint64(tag)<<56 | v&(1<<56-1)
}

// Sweep-point tags, one per independent randomness consumer. Allocate new
// experiments the next free value and never reuse one: a reused tag gives
// two experiments seed-identical trials with no error anywhere.
const (
	ptT10a uint8 = 1 + iota
	ptT10b
	ptT10c
	ptL9
	ptT18a
	ptT18bAdversary
	ptT18bSim
	ptX1Trapdoor
	ptX1Samaritan
	ptT1
	ptT4
	ptCompare // shared by the paired protocol comparisons (X2, X4, X8)
	ptX3
	ptX5
	ptX6Adversary
	ptX6Sim
	ptX7Sim
	ptX7Adversary
	ptR1
	ptR2Sim
	ptR2Adversary
	ptR3Sim
	ptR3Adversary
	ptX9Sim
	ptX9Adversary
	ptX9Model
	// shared by X10a/b/c on purpose: the dispatch-throughput experiments
	// are a paired protocol comparison — per row, the three protocols see
	// the same engine seeds and the same adversary stream.
	ptX10Sim
	ptX10Adversary
)

// boolBit packs an ablation flag into a point key.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mapTrials runs fn for i in [0, n) across o.workers() goroutines and
// collects the results in trial order. fn must be safe for concurrent
// invocation with distinct i. The first error by trial index wins,
// independent of scheduling.
func mapTrials[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	pool.Run(o.workers(), n, func(_, i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// summarizeTrials runs fn over n trials with mapTrials and folds the
// measurements into one stats.Accumulator in trial order. Use it when an
// experiment needs only the summary statistics of a sweep point.
func (o Options) summarizeTrials(n int, fn func(i int) (float64, error)) (stats.Summary, error) {
	xs, err := mapTrials(o, n, fn)
	if err != nil {
		return stats.Summary{}, err
	}
	var acc stats.Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Summary(), nil
}
