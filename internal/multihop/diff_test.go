package multihop

import (
	"fmt"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// diff_test.go differentially tests the two multi-hop medium resolvers:
// the legacy per-receiver neighbor scan (sim.MediumScan) is the oracle,
// the frequency-indexed bucket intersection (sim.MediumIndexed, the
// default) the implementation under test. Every Result field and every
// delivered message must be bit-identical over randomized topologies,
// schedules, and adversaries.

// diffAgent takes random actions, synchronizes after a drawn number of
// receptions, and logs everything it hears. Its behavior is a pure
// function of its private rng stream and the messages delivered to it, so
// identical deliveries imply identical executions.
type diffAgent struct {
	r      *rng.Rand
	f      int
	needed int
	leader bool
	heard  []uint64
}

func newDiffAgent(r *rng.Rand, f int) *diffAgent {
	return &diffAgent{r: r, f: f, needed: 1 + r.Intn(4), leader: r.Bool()}
}

func (a *diffAgent) Step(local uint64) sim.Action {
	freq := 1 + a.r.Intn(a.f)
	if a.r.Bool() {
		return sim.Action{Freq: freq, Transmit: true,
			Msg: msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local, UID: a.r.Uint64() % 1024}}}
	}
	return sim.Action{Freq: freq}
}

func (a *diffAgent) Deliver(m msg.Message) { a.heard = append(a.heard, m.TS.UID) }

func (a *diffAgent) Output() sim.Output {
	if len(a.heard) >= a.needed {
		return sim.Output{Value: uint64(len(a.heard)), Synced: true}
	}
	return sim.Output{}
}

func (a *diffAgent) IsLeader() bool { return a.leader }

// diffTopology draws a randomized communication graph, including
// disconnected geometric samples (the medium semantics do not require
// connectivity).
func diffTopology(r *rng.Rand) *Topology {
	switch r.IntRange(0, 3) {
	case 0:
		return Line(r.IntRange(2, 24))
	case 1:
		return Grid(r.IntRange(2, 6), r.IntRange(2, 6))
	case 2:
		return Clique(r.IntRange(2, 12))
	default:
		return RandomGeometric(r.IntRange(8, 48), 0.05+r.Float64()*0.45, r.Uint64())
	}
}

// diffSchedule draws an activation schedule over n nodes (nil = all wake
// in round 1).
func diffSchedule(r *rng.Rand, n int) sim.Schedule {
	switch r.IntRange(0, 2) {
	case 0:
		return nil
	case 1:
		return sim.Staggered{Count: n, Gap: uint64(r.IntRange(1, 4))}
	default:
		return sim.RandomWindow(n, uint64(r.IntRange(1, 30)), r.Uint64())
	}
}

// diffAdversary draws a jammer factory (or nil) for the given budget.
// Adversaries are stateful, so each run constructs its own instance.
func diffAdversary(r *rng.Rand, f, tBudget int) func() sim.Adversary {
	if tBudget == 0 {
		return nil
	}
	switch r.IntRange(0, 2) {
	case 0:
		return nil
	case 1:
		return func() sim.Adversary { return adversary.NewPrefix(f, tBudget) }
	default:
		seed := r.Uint64()
		return func() sim.Adversary { return adversary.NewRandom(f, tBudget, seed) }
	}
}

// diffRun executes one configuration under the given medium path and
// returns the result plus every agent's reception log.
func diffRun(t *testing.T, cfg Config, mkAdv func() sim.Adversary, medium sim.MediumPath) (*Result, [][]uint64) {
	t.Helper()
	agents := make([]*diffAgent, cfg.Topology.N())
	cfg.Medium = medium
	if mkAdv != nil {
		cfg.Adversary = mkAdv()
	}
	cfg.NewAgent = func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		a := newDiffAgent(r, cfg.F)
		agents[id] = a
		return a
	}
	res, err := Run(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	heard := make([][]uint64, len(agents))
	for i, a := range agents {
		if a != nil {
			heard[i] = a.heard
		}
	}
	return res, heard
}

// diffResults describes the first divergence between two runs, or "".
func diffResults(a, b *Result, heardA, heardB [][]uint64) string {
	switch {
	case a.Rounds != b.Rounds:
		return fmt.Sprintf("Rounds %d vs %d", a.Rounds, b.Rounds)
	case a.NodeRounds != b.NodeRounds:
		return fmt.Sprintf("NodeRounds %d vs %d", a.NodeRounds, b.NodeRounds)
	case a.AllSynced != b.AllSynced:
		return fmt.Sprintf("AllSynced %v vs %v", a.AllSynced, b.AllSynced)
	case a.Leaders != b.Leaders:
		return fmt.Sprintf("Leaders %d vs %d", a.Leaders, b.Leaders)
	case a.Deliveries != b.Deliveries:
		return fmt.Sprintf("Deliveries %d vs %d", a.Deliveries, b.Deliveries)
	case a.Collisions != b.Collisions:
		return fmt.Sprintf("Collisions %d vs %d", a.Collisions, b.Collisions)
	case a.HitMaxRounds != b.HitMaxRounds:
		return fmt.Sprintf("HitMaxRounds %v vs %v", a.HitMaxRounds, b.HitMaxRounds)
	}
	for i := range a.SyncRound {
		if a.SyncRound[i] != b.SyncRound[i] {
			return fmt.Sprintf("SyncRound[%d] %d vs %d", i, a.SyncRound[i], b.SyncRound[i])
		}
	}
	for i := range heardA {
		if len(heardA[i]) != len(heardB[i]) {
			return fmt.Sprintf("node %d heard %d vs %d messages", i, len(heardA[i]), len(heardB[i]))
		}
		for j := range heardA[i] {
			if heardA[i][j] != heardB[i][j] {
				return fmt.Sprintf("node %d reception %d: uid %d vs %d", i, j, heardA[i][j], heardB[i][j])
			}
		}
	}
	return ""
}

// TestMultihopMediumDifferential runs the per-receiver scan oracle and the
// frequency-indexed fast path over randomized configurations and asserts
// bit-identical results.
func TestMultihopMediumDifferential(t *testing.T) {
	master := rng.New(0x4d48)
	cases := 80
	if testing.Short() {
		cases = 25
	}
	for c := 0; c < cases; c++ {
		r := master.Split(uint64(c))
		topo := diffTopology(r)
		f := r.IntRange(2, 16)
		tBudget := r.IntRange(0, f-1)
		mkAdv := diffAdversary(r, f, tBudget)
		cfg := Config{
			F:         f,
			T:         tBudget,
			Seed:      r.Uint64(),
			Topology:  topo,
			Schedule:  diffSchedule(r, topo.N()),
			MaxRounds: uint64(r.IntRange(50, 250)),
			RunToMax:  r.Bool(),
		}
		scanRes, scanHeard := diffRun(t, cfg, mkAdv, sim.MediumScan)
		idxRes, idxHeard := diffRun(t, cfg, mkAdv, sim.MediumIndexed)
		if d := diffResults(scanRes, idxRes, scanHeard, idxHeard); d != "" {
			t.Fatalf("case %d (%v F=%d t=%d sched=%T): divergence: %s",
				c, topo, f, tBudget, cfg.Schedule, d)
		}
		if scanRes.NodeRounds == 0 {
			t.Fatalf("case %d: NodeRounds not counted", c)
		}
	}
}

// TestMultihopCliqueMatchesSimIndexed pins the clique special case of the
// indexed multi-hop resolver against the single-hop engine's own indexed
// path: identical deliveries, node-rounds, sync rounds, and every logged
// reception on the complete graph. Both drivers run serially and through
// RunConcurrent (one worker per node, and three workers), so the round
// core's graph and complete-graph resolve paths are pinned against each
// other in its serial and round-barrier forms alike.
func TestMultihopCliqueMatchesSimIndexed(t *testing.T) {
	const n, f, tBudget = 6, 5, 2
	type leg struct {
		name       string
		concurrent bool
		workers    int
	}
	legs := []leg{{"serial", false, 0}, {"concurrent-w0", true, 0}, {"concurrent-w3", true, 3}}
	multi := func(l leg) (deliveries, nodeRounds uint64, syncRound []uint64, heard [][]uint64) {
		agents := make([]*diffAgent, n)
		cfg := &Config{
			F: f, T: tBudget, Seed: 77,
			Topology: Clique(n),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				a := newDiffAgent(r, f)
				agents[id] = a
				return a
			},
			Adversary: adversary.NewPrefix(f, tBudget),
			MaxRounds: 300,
			RunToMax:  true,
			Workers:   l.workers,
		}
		run := Run
		if l.concurrent {
			run = RunConcurrent
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Deliveries, res.NodeRounds, res.SyncRound, agentLogs(agents)
	}
	single := func(l leg) (deliveries, nodeRounds uint64, syncRound []uint64, heard [][]uint64) {
		agents := make([]*diffAgent, n)
		cfg := &sim.Config{
			F: f, T: tBudget, Seed: 77,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				a := newDiffAgent(r, f)
				agents[id] = a
				return a
			},
			Schedule:       sim.Simultaneous{Count: n},
			Adversary:      adversary.NewPrefix(f, tBudget),
			MaxRounds:      300,
			RunToMaxRounds: true,
			Workers:        l.workers,
		}
		run := sim.Run
		if l.concurrent {
			run = sim.RunConcurrent
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Deliveries, res.Stats.NodeRounds, res.SyncRound, agentLogs(agents)
	}
	wantDel, wantNR, wantSync, wantHeard := single(legs[0])
	if wantDel == 0 {
		t.Fatal("reference run delivered nothing; the comparison is vacuous")
	}
	for _, l := range legs {
		for _, driver := range []struct {
			name string
			run  func(leg) (uint64, uint64, []uint64, [][]uint64)
		}{{"multihop", multi}, {"sim", single}} {
			del, nr, sync, heard := driver.run(l)
			where := driver.name + "/" + l.name
			if del != wantDel {
				t.Fatalf("%s: deliveries %d vs %d (single-hop serial)", where, del, wantDel)
			}
			if nr != wantNR {
				t.Fatalf("%s: node-rounds %d vs %d", where, nr, wantNR)
			}
			for i := 0; i < n; i++ {
				if sync[i] != wantSync[i] {
					t.Fatalf("%s: node %d synced at %d vs %d", where, i, sync[i], wantSync[i])
				}
			}
			for i := 0; i < n; i++ {
				if len(heard[i]) != len(wantHeard[i]) {
					t.Fatalf("%s: node %d heard %d vs %d", where, i, len(heard[i]), len(wantHeard[i]))
				}
				for j := range heard[i] {
					if heard[i][j] != wantHeard[i][j] {
						t.Fatalf("%s: node %d reception %d: uid %d vs %d", where, i, j, heard[i][j], wantHeard[i][j])
					}
				}
			}
		}
	}
}

// agentLogs collects every agent's reception log (nil for agents never
// constructed).
func agentLogs(agents []*diffAgent) [][]uint64 {
	heard := make([][]uint64, len(agents))
	for i, a := range agents {
		if a != nil {
			heard[i] = a.heard
		}
	}
	return heard
}
