package wsync

import (
	"fmt"
	"reflect"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/churn"
	"wsync/internal/multihop"
	"wsync/internal/props"
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

// TestRunAgentsBatch guards Run's batch path, in the style of the
// catalogue's TestCatalogueAgentsBatch: every named protocol with an
// arena builds sim.BatchAgents of one cohort per Run call, and no two
// calls share that cohort. BaselineSingleFreq, which has no arena, is the
// one exception.
func TestRunAgentsBatch(t *testing.T) {
	cohort := func(ag sim.Agent) any {
		if ba, ok := ag.(sim.BatchAgent); ok {
			return ba.Cohort()
		}
		return nil
	}
	for _, c := range []Config{
		{Protocol: Trapdoor},
		{Protocol: Trapdoor, FaultTolerant: true},
		{Protocol: GoodSamaritan},
		{Protocol: BaselineWakeup},
		{Protocol: BaselineRoundRobin},
		{Protocol: BaselineSingleFreq},
	} {
		c.Nodes, c.F, c.T = 5, 8, 2
		c = c.withDefaults()
		name := fmt.Sprintf("%s (FaultTolerant %v)", c.Protocol, c.FaultTolerant)
		sched, err := c.schedule()
		if err != nil {
			t.Fatal(err)
		}
		mk := func() func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
			factory, err := c.agentFactory(sched.N())
			if err != nil {
				t.Fatal(err)
			}
			return factory
		}
		run := mk()
		first := cohort(run(0, 1, rng.New(1)))
		if c.Protocol == BaselineSingleFreq {
			if first != nil {
				t.Errorf("%s batch-steps; drop it from this test's exceptions", name)
			}
			continue
		}
		if first == nil {
			t.Errorf("%s: node 0 does not batch-step (not a BatchAgent, or nil Cohort)", name)
			continue
		}
		for id := 1; id < sched.N(); id++ {
			if cohort(run(sim.NodeID(id), 1, rng.New(uint64(id)+1))) != first {
				t.Errorf("%s: node %d is outside node 0's cohort", name, id)
			}
		}
		if cohort(mk()(0, 1, rng.New(1))) == first {
			t.Errorf("%s: two Run calls share one arena", name)
		}
	}
}

// TestRunMatchesPerNodeRun is Run's differential oracle: over a grid of
// protocols, activations and jammers, Run's Result equals the Result of a
// sim.Run whose nodes are built one at a time with MustNew and stepped
// with batching off.
func TestRunMatchesPerNodeRun(t *testing.T) {
	perNode := func(c Config) func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
		return func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
			switch c.Protocol {
			case Trapdoor:
				p := trapdoor.Params{N: c.N, F: c.F, T: c.T, FaultTolerant: c.FaultTolerant}
				if c.FaultTolerant {
					p.CommitThreshold = 2
				}
				return trapdoor.MustNew(p, r)
			case GoodSamaritan:
				return samaritan.MustNew(samaritan.Params{N: c.N, F: c.F, T: c.T}, r)
			case BaselineWakeup:
				return baseline.NewWakeup(c.N, c.F, r)
			case BaselineRoundRobin:
				return baseline.NewRoundRobin(c.N, c.F, r)
			default:
				return baseline.NewSingleFreq(c.N, r)
			}
		}
	}
	type proto struct {
		p  Protocol
		ft bool
	}
	for _, pr := range []proto{
		{Trapdoor, false}, {Trapdoor, true}, {GoodSamaritan, false},
		{BaselineWakeup, false}, {BaselineRoundRobin, false}, {BaselineSingleFreq, false},
	} {
		for _, act := range []string{"simultaneous", "staggered", "random"} {
			for _, jam := range []struct {
				name   string
				prefix int
			}{{"none", 0}, {"fixed", 1}, {"fixed", 0}, {"random", 0}, {"reactive", 0}} {
				c := Config{
					Protocol: pr.p, FaultTolerant: pr.ft,
					Nodes: 4, N: 16, F: 8, T: 2,
					Adversary: jam.name, JammedPrefix: jam.prefix,
					Activation: act, ActivationGap: 5, ActivationWindow: 40,
					Seed: 3, MaxRounds: 50000,
				}
				got, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				c = c.withDefaults()
				sched, err := c.schedule()
				if err != nil {
					t.Fatal(err)
				}
				adv, err := c.adversary()
				if err != nil {
					t.Fatal(err)
				}
				check := props.NewChecker(sched.N())
				res, err := sim.Run(&sim.Config{
					F: c.F, T: c.T, Seed: c.Seed,
					NewAgent:  perNode(c),
					Schedule:  sched,
					Adversary: adv,
					MaxRounds: c.MaxRounds,
					Observers: []sim.Observer{check},
					NoBatch:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				want := &Result{
					AllSynced:       res.AllSynced,
					Rounds:          res.Stats.Rounds,
					MaxSyncLocal:    res.MaxSyncLocal,
					SyncRound:       res.SyncRound,
					Activated:       res.Activated,
					Leaders:         res.Leaders,
					PropertiesOK:    check.OK(),
					Summary:         check.Summary(),
					Transmissions:   res.Stats.Transmissions,
					Deliveries:      res.Stats.Deliveries,
					Collisions:      res.Stats.Collisions,
					JammedLosses:    res.Stats.DisruptedLosses,
					ClearBroadcasts: res.Stats.ClearBroadcasts,
					HitMaxRounds:    res.HitMaxRounds,
				}
				for _, v := range check.Violations() {
					want.Violations = append(want.Violations, v.String())
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s ft=%v %s %s/%d: Run differs from the per-node run\nRun:      %+v\nper-node: %+v",
						pr.p, pr.ft, act, jam.name, jam.prefix, got, want)
				}
			}
		}
	}
}
