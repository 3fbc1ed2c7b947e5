package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"wsync/internal/harness"
	"wsync/internal/rng"
	"wsync/internal/svc"
)

// workloads in the order -workload all runs them. The why lines are the
// ones BENCHMARK.json carries.
var workloads = []workload{
	{
		name:  "sweep-default",
		why:   "the reproduction run users and CI execute: all 26 experiments at the default tier, every engine and the analytic code, half of it dense X10 stepping",
		setup: setupSweep,
	},
	{
		name:  "served-quick",
		why:   "quick-tier jobs through an in-process wsyncd and one worker to the merged report, then resubmitted as cache hits: the only workload that crosses the service hops and the cache",
		setup: setupServed,
	},
	{
		name:  "engine-dense",
		why:   "all nodes awake on F=128 at n=1024 and n=4096: per-node stepping and complete-graph resolution do nearly all the work, and the two sizes separate compute from cache effects",
		setup: setupDense,
	},
	{
		name:  "engine-sparse",
		why:   "few awake nodes or a moving graph per round: adversary, churn, jammer and neighbourhood resolution dominate, the contrast to engine-dense for every engine change",
		setup: setupSparse,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolWorkers is the trial-runner width of every workload: the harness
// Parallelism, the worker's Parallelism, and the engine workloads'
// pool.Run width.
const poolWorkers = gomaxprocs

// sizes fixes how much work each workload's units do. The goldens are
// kept per sizes name; tests run a tiny set.
type sizes struct {
	name   string
	sweep  sweepSize
	served servedSize
	dense  denseSize
	sparse sparseSize
}

// fullSizes are the sizes the benchmark measures.
func fullSizes() sizes {
	return sizes{
		name: "full",
		sweep: sweepSize{
			opt:      harness.Options{Trials: harness.DefaultTrials, Parallelism: poolWorkers},
			warm:     harness.Options{Trials: 1, Quick: true, Parallelism: poolWorkers},
			minUnits: 2,
		},
		served: servedSize{
			req:      svc.SubmitRequest{Trials: 1, Quick: true},
			poll:     10 * time.Millisecond,
			minUnits: 50,
			maxUnits: 60,
		},
		dense: denseSize{
			f: 128, t: 16,
			shapes:     []denseShape{{n: 1024, rounds: 2048}, {n: 4096, rounds: 512}},
			reps:       1,
			warmRounds: 128,
			minUnits:   5,
		},
		sparse: sparseSize{
			groups: 2,
			relay: relaySize{n: 1024, radius: 0.06, speed: 0.003, movers: 64,
				f: 6, t: 2, bound: 8, rounds: 384, warmRounds: 64},
			gallery: gallerySize{adversaries: []string{"reactive", "stalker", "sweep", "bursty"},
				f: 128, t: 48, bound: 64, active: 8, gap: 5, maxRounds: 1 << 22, warmRounds: 2000},
			rdv: rdvSize{parties: 16, f: 64, t: 24, rate: 0.02, maxRounds: 1 << 16,
				perGroup: 12, warm: 4},
			minUnits: 5,
		},
	}
}

// Seed tags keep the workloads' input streams apart.
const (
	tagDense uint64 = 1 + iota
	tagSparse
	tagWarm
)

// trialSeeds derives trial i of unit u's engine seed and adversary (or
// model) seed from the run seed alone.
func trialSeeds(seed, tag uint64, u, i int) (engine, aux uint64) {
	r := rng.New(seed).Split(tag).Split(uint64(u)).Split(uint64(i))
	return r.Uint64(), r.Uint64()
}

// digest fingerprints a value through its JSON encoding.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Results are plain structs of numbers and slices; failing to
		// encode one is a bug in this file.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
