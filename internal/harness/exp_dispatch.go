package harness

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// exp_dispatch.go: the X10 dispatch-throughput experiments. Each runs a
// dense, all-awake, fixed-horizon workload on a wide band (F=128) with
// arena-built agents, so the single-hop engine advances the whole
// population through one StepBatch call per round — unless Options.NoBatch
// forces the per-node virtual fallback. The two modes are bit-identical in
// every simulation output (the engines' batch-dispatch contract; see
// TestBatchStepMatchesPerNode), so the tables differ only in the recorded
// dispatch column, node_rounds is deterministic (all n nodes awake for all
// rounds), and the report-level node_rounds_per_s axis isolates pure
// dispatch cost: `wexp benchdiff` between a -nobatch report and a normal
// one reads as the devirtualization speedup.

// dispatchLabel names the stepping mode an X10 table was measured under.
func dispatchLabel(o Options) string {
	if o.NoBatch {
		return "virtual"
	}
	return "batch"
}

// runDispatchSweep is the shared X10 body: a fixed-horizon dense sweep over
// population sizes for one arena-built protocol. The X10 experiments share
// sweep-point tags on purpose (paired protocol comparison): per row, every
// protocol sees the same engine seeds and the same adversary stream.
func runDispatchSweep(o Options, id, title string,
	mkArena agentMaker) (*Table, error) {
	const f, tJam = 128, 16
	tbl := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"dispatch", "nodes", "rounds", "node rounds/trial", "synced", "median collisions"},
	}
	type dispatchCase struct {
		n      int
		rounds uint64
	}
	// Order is load-bearing: point keys are index-based, so only appending
	// keeps historical trial seeds stable (quick runs the first case only,
	// the full tier appends).
	cases := []dispatchCase{{256, 4096}, {1024, 2048}}
	if o.Full {
		cases = append(cases, dispatchCase{4096, 1024})
	}
	if o.quick() {
		cases = cases[:1]
	}
	for ci, c := range cases {
		ci, c := ci, c
		var synced atomic.Uint64
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			// One arena per trial: trials run concurrently and arena slots
			// are only single-run-safe (slot i belongs to node i of one
			// engine at a time).
			res, err := o.simRun(&sim.Config{
				F:              f,
				T:              tJam,
				Seed:           o.TrialSeed(pointKey(ptX10Sim, uint64(ci)), i),
				NewAgent:       mkArena(c.n),
				Schedule:       sim.Simultaneous{Count: c.n},
				Adversary:      adversary.NewRandom(f, tJam, o.TrialSeed(pointKey(ptX10Adversary, uint64(ci)), i)),
				MaxRounds:      c.rounds,
				RunToMaxRounds: true,
				NoBatch:        o.NoBatch,
			})
			if err != nil {
				return 0, err
			}
			if res.AllSynced {
				synced.Add(1)
			}
			return float64(res.Stats.Collisions), nil
		})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(dispatchLabel(o), c.n, c.rounds, uint64(c.n)*c.rounds,
			fmt.Sprintf("%d/%d", synced.Load(), o.trials()), s.Median)
	}
	tbl.Notes = append(tbl.Notes,
		"fixed-horizon dense workload: every node awake from round 1 on F=128, run to the cap, so node rounds/trial is exact and node_rounds_per_s isolates stepping cost",
		"dispatch records the stepping mode (batch = devirtualized StepBatch cohorts, virtual = per-node Step via -nobatch); simulation results are bit-identical between the modes",
		"median collisions is a determinism checksum: it must not move across dispatch modes, parallelism levels, or shardings")
	return tbl, nil
}

// runX10a measures dispatch throughput for the Trapdoor protocol.
func runX10a(o Options) (*Table, error) {
	return runDispatchSweep(o, "X10a", "Dispatch throughput: Trapdoor, dense band (X10)",
		func(n int) newAgentFunc {
			return trapdoor.MustNewArena(trapdoor.Params{N: n, F: 128, T: 16}, n).NewAgent
		})
}

// runX10b measures dispatch throughput for the Good Samaritan protocol.
func runX10b(o Options) (*Table, error) {
	return runDispatchSweep(o, "X10b", "Dispatch throughput: Good Samaritan, dense band (X10)",
		func(n int) newAgentFunc {
			return samaritan.MustNewArena(samaritan.Params{N: n, F: 128, T: 16}, n).NewAgent
		})
}

// runX10c measures dispatch throughput for the round-robin baseline — the
// cheapest per-step protocol, so the largest fraction of its round is
// dispatch overhead and the batch/virtual ratio is widest here.
func runX10c(o Options) (*Table, error) {
	return runDispatchSweep(o, "X10c", "Dispatch throughput: round-robin baseline, dense band (X10)",
		func(n int) newAgentFunc {
			return baseline.NewRoundRobinArena(n, 128, n).NewAgent
		})
}
