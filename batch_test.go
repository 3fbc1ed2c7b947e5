package wsync

import (
	"reflect"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/churn"
	"wsync/internal/multihop"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// roundLog is a deep copy of one round's record, retained past the
// observer call (the engine reuses the record's backing storage).
type roundLog struct {
	actions    []sim.ActionRecord
	deliveries []sim.Delivery
	clear      []int
}

// historyRecorder captures the full per-round history of a run so two runs
// can be compared record for record.
type historyRecorder struct {
	logs []roundLog
}

func (h *historyRecorder) ObserveRound(rec *sim.RoundRecord) {
	h.logs = append(h.logs, roundLog{
		actions:    append([]sim.ActionRecord(nil), rec.Actions...),
		deliveries: append([]sim.Delivery(nil), rec.Deliveries...),
		clear:      append([]int(nil), rec.Clear...),
	})
}

// TestBatchStepMatchesPerNode is the batch-dispatch differential oracle:
// over randomized schedules, adversaries, and seeds, an engine stepping
// arena-built cohorts through StepBatch must produce byte-identical Results
// AND byte-identical per-round histories (actions, deliveries, clear lists)
// to the same engine with batching disabled (per-node Step fallback), for
// all three batch protocols.
func TestBatchStepMatchesPerNode(t *testing.T) {
	const f, tBudget, n = 16, 4, 48
	mkAdv := []func(seed uint64) sim.Adversary{
		func(uint64) sim.Adversary { return nil },
		func(seed uint64) sim.Adversary { return adversary.NewRandom(f, tBudget, seed) },
		func(uint64) sim.Adversary { return adversary.NewSweep(f, tBudget, 1) },
	}
	mkSched := []func(r *rng.Rand) sim.Schedule{
		func(*rng.Rand) sim.Schedule { return sim.Simultaneous{Count: n} },
		func(r *rng.Rand) sim.Schedule {
			return sim.Staggered{Count: n, Gap: uint64(1 + r.Intn(4))}
		},
	}
	protos := []struct {
		name  string
		arena func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent
	}{
		{"trapdoor", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return trapdoor.MustNewArena(trapdoor.Params{N: n, F: f, T: tBudget}, n).NewAgent
		}},
		{"samaritan", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return samaritan.MustNewArena(samaritan.Params{N: n, F: f, T: tBudget}, n).NewAgent
		}},
		{"wakeup", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return baseline.NewWakeupArena(n, f, n).NewAgent
		}},
		{"roundrobin", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return baseline.NewRoundRobinArena(n, f, n).NewAgent
		}},
	}
	for _, proto := range protos {
		t.Run(proto.name, func(t *testing.T) {
			pick := rng.New(0xba7c4 ^ uint64(len(proto.name)))
			for trial := 0; trial < 6; trial++ {
				seed := pick.Uint64()
				sched := mkSched[pick.Intn(len(mkSched))](pick)
				advIdx := pick.Intn(len(mkAdv))
				run := func(noBatch bool) (*sim.Result, *historyRecorder) {
					rec := &historyRecorder{}
					res, err := sim.Run(&sim.Config{
						F:         f,
						T:         tBudget,
						Seed:      seed,
						NewAgent:  proto.arena(),
						Schedule:  sched,
						Adversary: mkAdv[advIdx](seed),
						MaxRounds: 30000,
						Observers: []sim.Observer{rec},
						NoBatch:   noBatch,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, rec
				}
				batched, batchedHist := run(false)
				perNode, perNodeHist := run(true)
				if !reflect.DeepEqual(batched, perNode) {
					t.Fatalf("trial %d (seed %#x, adv %d): results differ\nbatch:    %+v\nper-node: %+v",
						trial, seed, advIdx, batched, perNode)
				}
				if !reflect.DeepEqual(batchedHist, perNodeHist) {
					t.Fatalf("trial %d (seed %#x, adv %d): histories differ across %d vs %d rounds",
						trial, seed, advIdx, len(batchedHist.logs), len(perNodeHist.logs))
				}
			}
		})
	}
}

// TestMultihopBatchStepMatchesPerNode runs the same oracle on the multihop
// engine, with churn in the mix: batch and per-node runs over a churned
// grid must agree on the full Result (sync rounds, deliveries, collisions,
// churn counters) for each batch protocol.
func TestMultihopBatchStepMatchesPerNode(t *testing.T) {
	const f, tBudget = 16, 4
	topo := multihop.Grid(6, 6)
	n := topo.N()
	protos := []struct {
		name  string
		arena func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent
	}{
		{"trapdoor", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return trapdoor.MustNewArena(trapdoor.Params{N: n, F: f, T: tBudget}, n).NewAgent
		}},
		{"samaritan", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return samaritan.MustNewArena(samaritan.Params{N: n, F: f, T: tBudget}, n).NewAgent
		}},
		{"roundrobin", func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			return baseline.NewRoundRobinArena(n, f, n).NewAgent
		}},
	}
	for _, proto := range protos {
		t.Run(proto.name, func(t *testing.T) {
			for trial, seed := range []uint64{7, 99, 4242} {
				run := func(noBatch bool) *multihop.Result {
					res, err := multihop.Run(&multihop.Config{
						F:         f,
						T:         tBudget,
						Seed:      seed,
						Topology:  topo,
						NewAgent:  proto.arena(),
						Schedule:  sim.Staggered{Count: n, Gap: 1},
						Adversary: adversary.NewRandom(f, tBudget, seed),
						Churn:     churn.NewFlip(topo, 0.02, seed),
						MaxRounds: 5000,
						RunToMax:  true,
						NoBatch:   noBatch,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				batched := run(false)
				perNode := run(true)
				if !reflect.DeepEqual(batched, perNode) {
					t.Fatalf("trial %d (seed %d): results differ\nbatch:    %+v\nper-node: %+v",
						trial, seed, batched, perNode)
				}
				if batched.ChurnRounds == 0 {
					t.Fatalf("trial %d: churn never fired; the differential is vacuous", trial)
				}
			}
		})
	}
}

// TestBatchCohortsFallback checks the grouping rules directly: non-batch
// agents and opted-out batch agents go solo, distinct cohort keys split
// cohorts, and mixed populations step through both paths in one run.
func TestBatchCohortsFallback(t *testing.T) {
	const f, n = 8, 24
	wakeA := baseline.NewWakeupArena(n, f, n)
	wakeB := baseline.NewWakeupArena(n, f, n)
	mixed := func(id sim.NodeID, act uint64, r *rng.Rand) sim.Agent {
		switch id % 3 {
		case 0:
			return wakeA.NewAgent(id, act, r)
		case 1:
			return wakeB.NewAgent(id, act, r)
		default:
			return baseline.NewWakeup(n, f, r) // opts out: solo fallback
		}
	}
	res, err := sim.Run(&sim.Config{
		F: f, Seed: 11, NewAgent: mixed,
		Schedule:  sim.Staggered{Count: n, Gap: 2},
		MaxRounds: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	wakeA = baseline.NewWakeupArena(n, f, n)
	wakeB = baseline.NewWakeupArena(n, f, n)
	ref, err := sim.Run(&sim.Config{
		F: f, Seed: 11, NewAgent: mixed,
		Schedule:  sim.Staggered{Count: n, Gap: 2},
		MaxRounds: 20000,
		NoBatch:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("mixed-population batch run differs from per-node run:\n%+v\nvs\n%+v", res, ref)
	}
}
