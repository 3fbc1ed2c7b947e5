package multihop

import (
	"fmt"
	"reflect"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/simtest"
)

// diff_test.go checks the graph resolve path, through this driver,
// against the brute-force reception rule (internal/simtest) in every
// round of randomized topologies, schedules, adversaries and churn. Each
// checked run has an unobserved twin that must return the identical
// Result and reception logs: attaching the oracle switches record
// building on, so the twin keeps the no-record path covered.

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

// edgeKey normalizes an undirected edge into a comparable map key.
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
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

// topology returns the graph the model has emitted so far: its base
// graph with every delta folded in.
func (c *testChurn) topology() *Topology {
	edges := make([]Edge, 0, len(c.edges))
	for key := range c.edges {
		edges = append(edges, Edge{A: int(key >> 32), B: int(key & (1<<32 - 1))})
	}
	return NewTopologyFromEdges(c.n, edges)
}

// diffRun executes one configuration with a simtest.Oracle attached, and
// an unobserved twin of it. It returns the checked run's result and every
// agent's reception log, and an error for the first divergence from the
// rule or between the two runs. Stateful collaborators (adversary, churn
// model) are constructed fresh per run via the factories; either may be
// nil.
func diffRun(t *testing.T, cfg Config, mkAdv func() sim.Adversary, mkChurn func() *testChurn) (*Result, [][]uint64, error) {
	t.Helper()
	twin := cfg
	twin.Observers = nil
	oracle := &simtest.Oracle{Graph: func(uint64) medium.Graph { return cfg.Topology }}
	if mkAdv != nil {
		cfg.Adversary, twin.Adversary = mkAdv(), mkAdv()
		oracle.Jam, _ = cfg.Adversary.(sim.ListenerDisrupter)
	}
	if mkChurn != nil {
		ch := mkChurn()
		cfg.Churn, twin.Churn = ch, mkChurn()
		oracle.Graph = func(uint64) medium.Graph { return ch.topology() }
	}
	cfg.Observers = append(cfg.Observers[:len(cfg.Observers):len(cfg.Observers)], oracle)
	res, heard := runLogged(t, cfg)
	twinRes, twinHeard := runLogged(t, twin)
	s := oracle.Stats()
	switch {
	case oracle.Err() != nil:
		return res, heard, oracle.Err()
	case s.Rounds != res.Rounds || s.NodeRounds != res.NodeRounds ||
		s.Deliveries != res.Deliveries || s.Collisions != res.Collisions:
		return res, heard, fmt.Errorf("result %+v, the rule's totals %+v", res, s)
	case !reflect.DeepEqual(res, twinRes):
		return res, heard, fmt.Errorf("the unobserved twin differs:\nobserved: %+v\ntwin:     %+v", res, twinRes)
	case !reflect.DeepEqual(heard, twinHeard):
		return res, heard, fmt.Errorf("the unobserved twin's reception logs differ")
	}
	return res, heard, nil
}

// runLogged executes one run and returns the result plus every agent's
// reception log.
func runLogged(t *testing.T, cfg Config) (*Result, [][]uint64) {
	t.Helper()
	agents := make([]*diffAgent, cfg.Topology.N())
	cfg.NewAgent = func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		a := newDiffAgent(r, cfg.F)
		agents[id] = a
		return a
	}
	res, err := Run(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, agentLogs(agents)
}

// TestMultihopMediumDifferential runs the graph resolve path under the
// oracle over randomized configurations, each with an unobserved twin.
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
		res, _, err := diffRun(t, cfg, mkAdv, nil)
		if err != nil {
			t.Fatalf("case %d (%v F=%d t=%d sched=%T): %v", c, topo, f, tBudget, cfg.Schedule, err)
		}
		if res.NodeRounds == 0 {
			t.Fatalf("case %d: NodeRounds not counted", c)
		}
	}
}

// listenerJam jams the low prefix [1..t] network-wide and, per listener,
// every frequency f with (node + f) divisible by 3. It reads no history.
type listenerJam struct{ set *freqset.Set }

func (j listenerJam) Disrupt(uint64, *sim.History) *freqset.Set { return j.set }
func (listenerJam) DisruptedAt(i sim.NodeID, f int) bool        { return (int(i)+f)%3 == 0 }
func (listenerJam) IgnoresHistory()                             {}

// TestMultihopListenerDisrupter runs the per-listener jamming hook under
// the oracle, which is told the hook, over randomized topologies and
// schedules, each with an unobserved twin.
func TestMultihopListenerDisrupter(t *testing.T) {
	master := rng.New(0x4c44)
	var dropped uint64
	for c := 0; c < 20; c++ {
		r := master.Split(uint64(c))
		topo := diffTopology(r)
		f := r.IntRange(2, 16)
		tBudget := r.IntRange(0, f/2)
		prefix := make([]int, tBudget)
		for i := range prefix {
			prefix[i] = i + 1
		}
		cfg := Config{
			F:         f,
			T:         tBudget,
			Seed:      r.Uint64(),
			Topology:  topo,
			Schedule:  diffSchedule(r, topo.N()),
			MaxRounds: uint64(r.IntRange(50, 250)),
			RunToMax:  true,
		}
		mkAdv := func() sim.Adversary { return listenerJam{freqset.FromSlice(f, prefix)} }
		hooked, _, err := diffRun(t, cfg, mkAdv, nil)
		if err != nil {
			t.Fatalf("case %d (%v F=%d t=%d sched=%T): %v", c, topo, f, tBudget, cfg.Schedule, err)
		}
		plain, _, err := diffRun(t, cfg, func() sim.Adversary { return adversary.NewPrefix(f, tBudget) }, nil)
		if err != nil {
			t.Fatalf("case %d without the hook: %v", c, err)
		}
		dropped += plain.Deliveries - hooked.Deliveries
	}
	if dropped == 0 {
		t.Fatal("the hook never blocked a delivery; the check ran vacuously")
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
