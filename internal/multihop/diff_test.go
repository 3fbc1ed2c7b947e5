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
// the frequency-indexed transmitter-side push (sim.MediumIndexed, the
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

// testChurn is a seeded random churn model: each round it toggles up to
// three node pairs, tracking the live edge set so every emitted delta
// honors the engine's strict present/absent contract. Deterministic per
// seed, so a fresh instance replays identically for each run. It is
// defined here because internal/churn imports multihop, so its models
// cannot appear in this package's tests.
type testChurn struct {
	r     *rng.Rand
	n     int
	edges map[uint64]struct{}
	add   []Edge
	rem   []Edge
}

func newTestChurn(topo *Topology, seed uint64) *testChurn {
	c := &testChurn{r: rng.New(seed), n: topo.N(), edges: map[uint64]struct{}{}}
	for _, e := range topo.AppendEdges(nil) {
		c.edges[edgeKey(e.A, e.B)] = struct{}{}
	}
	return c
}

func (c *testChurn) Deltas(r uint64) (add, remove []Edge) {
	c.add, c.rem = c.add[:0], c.rem[:0]
	k := c.r.IntRange(0, 3)
draw:
	for i := 0; i < k; i++ {
		a, b := c.r.Intn(c.n), c.r.Intn(c.n)
		if a == b {
			continue
		}
		key := edgeKey(a, b)
		// Toggling the same pair twice in one round would emit an add and
		// a remove for one edge; the engine applies removes first, so the
		// pair must appear at most once per round.
		for _, e := range c.add {
			if edgeKey(e.A, e.B) == key {
				continue draw
			}
		}
		for _, e := range c.rem {
			if edgeKey(e.A, e.B) == key {
				continue draw
			}
		}
		if _, ok := c.edges[key]; ok {
			delete(c.edges, key)
			c.rem = append(c.rem, Edge{A: a, B: b})
		} else {
			c.edges[key] = struct{}{}
			c.add = append(c.add, Edge{A: a, B: b})
		}
	}
	return c.add, c.rem
}

// diffRun executes one configuration under the given medium path and
// returns the result plus every agent's reception log. Stateful
// collaborators (adversary, churn model) are constructed fresh per run via
// the factories; either may be nil.
func diffRun(t *testing.T, cfg Config, mkAdv func() sim.Adversary, mkChurn func() ChurnModel,
	medium sim.MediumPath) (*Result, [][]uint64) {
	t.Helper()
	agents := make([]*diffAgent, cfg.Topology.N())
	cfg.Medium = medium
	if mkAdv != nil {
		cfg.Adversary = mkAdv()
	}
	if mkChurn != nil {
		cfg.Churn = mkChurn()
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
		scanRes, scanHeard := diffRun(t, cfg, mkAdv, nil, sim.MediumScan)
		idxRes, idxHeard := diffRun(t, cfg, mkAdv, nil, sim.MediumIndexed)
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
// reception on the complete graph, so the round core's graph and
// complete-graph resolve paths are pinned against each other.
func TestMultihopCliqueMatchesSimIndexed(t *testing.T) {
	const n, f, tBudget = 6, 5, 2
	multi := func() (deliveries, nodeRounds uint64, syncRound []uint64, heard [][]uint64) {
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
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Deliveries, res.NodeRounds, res.SyncRound, agentLogs(agents)
	}
	single := func() (deliveries, nodeRounds uint64, syncRound []uint64, heard [][]uint64) {
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
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Deliveries, res.Stats.NodeRounds, res.SyncRound, agentLogs(agents)
	}
	wantDel, wantNR, wantSync, wantHeard := single()
	if wantDel == 0 {
		t.Fatal("reference run delivered nothing; the comparison is vacuous")
	}
	del, nr, sync, heard := multi()
	if del != wantDel {
		t.Fatalf("deliveries %d vs %d (single-hop)", del, wantDel)
	}
	if nr != wantNR {
		t.Fatalf("node-rounds %d vs %d", nr, wantNR)
	}
	for i := 0; i < n; i++ {
		if sync[i] != wantSync[i] {
			t.Fatalf("node %d synced at %d vs %d", i, sync[i], wantSync[i])
		}
	}
	for i := 0; i < n; i++ {
		if len(heard[i]) != len(wantHeard[i]) {
			t.Fatalf("node %d heard %d vs %d", i, len(heard[i]), len(wantHeard[i]))
		}
		for j := range heard[i] {
			if heard[i][j] != wantHeard[i][j] {
				t.Fatalf("node %d reception %d: uid %d vs %d", i, j, heard[i][j], wantHeard[i][j])
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
