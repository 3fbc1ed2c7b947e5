package multihop

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

func TestLineTopology(t *testing.T) {
	l := Line(5)
	if l.N() != 5 || !l.Connected() {
		t.Fatal("bad line")
	}
	if l.Degree(0) != 1 || l.Degree(2) != 2 || l.Degree(4) != 1 {
		t.Fatal("bad line degrees")
	}
	if got := l.Diameter(); got != 4 {
		t.Fatalf("line diameter = %d, want 4", got)
	}
	if Line(1).Diameter() != 0 {
		t.Fatal("singleton diameter != 0")
	}
}

func TestGridTopology(t *testing.T) {
	g := Grid(3, 3)
	if g.N() != 9 || !g.Connected() {
		t.Fatal("bad grid")
	}
	if g.Degree(4) != 4 { // center
		t.Fatalf("center degree = %d", g.Degree(4))
	}
	if g.Degree(0) != 2 { // corner
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if got := g.Diameter(); got != 4 {
		t.Fatalf("3x3 grid diameter = %d, want 4", got)
	}
}

// Clique returns the complete graph — the single-hop special case, used to
// validate graph resolution against the single-hop model's semantics.
func Clique(n int) *Topology {
	if n < 1 {
		panic("multihop: Clique needs n >= 1")
	}
	t := newTopology(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.addEdge(i, j)
		}
	}
	return t.finish()
}

func TestCliqueTopology(t *testing.T) {
	c := Clique(6)
	for i := 0; i < 6; i++ {
		if c.Degree(i) != 5 {
			t.Fatalf("degree(%d) = %d", i, c.Degree(i))
		}
	}
	if c.Diameter() != 1 {
		t.Fatal("clique diameter != 1")
	}
}

func TestRandomGeometric(t *testing.T) {
	a := RandomGeometric(30, 0.4, 7)
	b := RandomGeometric(30, 0.4, 7)
	for i := 0; i < 30; i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatal("not deterministic")
		}
	}
	// A tiny radius yields fewer edges than a large one.
	sparse := RandomGeometric(30, 0.05, 7)
	se, de := 0, 0
	for i := 0; i < 30; i++ {
		se += sparse.Degree(i)
		de += a.Degree(i)
	}
	if se >= de {
		t.Fatalf("sparse degrees %d >= dense %d", se, de)
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	// Deterministic in seed, and always connected even when plain
	// RandomGeometric frequently is not at this radius.
	a := RandomGeometricConnected(40, 0.25, 3)
	if !a.Connected() {
		t.Fatal("not connected")
	}
	b := RandomGeometricConnected(40, 0.25, 3)
	for i := 0; i < 40; i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatal("not deterministic")
		}
		for j := range na {
			if na[j] != nb[j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestRandomGeometricConnectedPanicsBelowThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RandomGeometricConnected(64, 0.001, 1)
}

// TestNeighborsSortedDeduped pins the topology invariant deterministic
// round traces rely on: every adjacency list is strictly ascending
// (sorted, no duplicates, no self-loops).
func TestNeighborsSortedDeduped(t *testing.T) {
	topos := map[string]*Topology{
		"line": Line(17),
		"grid": Grid(5, 4),
		"cliq": Clique(9),
		"rgg":  RandomGeometric(50, 0.3, 5),
		"conn": RandomGeometricConnected(30, 0.4, 6),
	}
	for name, topo := range topos {
		for i := 0; i < topo.N(); i++ {
			nbrs := topo.Neighbors(i)
			for j := range nbrs {
				if nbrs[j] == i {
					t.Fatalf("%s: self-loop at %d", name, i)
				}
				if j > 0 && nbrs[j-1] >= nbrs[j] {
					t.Fatalf("%s: Neighbors(%d) = %v not strictly ascending", name, i, nbrs)
				}
			}
		}
	}
}

func TestDiameterPanicsDisconnected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RandomGeometric(40, 0.01, 1).Diameter()
}

// planAgent replays fixed actions (index by local round, repeating last).
type planAgent struct {
	plan []sim.Action
	got  []msg.Message
}

func (a *planAgent) Step(local uint64) sim.Action {
	idx := int(local) - 1
	if idx >= len(a.plan) {
		idx = len(a.plan) - 1
	}
	return a.plan[idx]
}
func (a *planAgent) Deliver(m msg.Message) { a.got = append(a.got, m.Clone()) }
func (a *planAgent) Output() sim.Output    { return sim.Output{} }

func tx(f int, uid uint64) sim.Action {
	return sim.Action{Freq: f, Transmit: true, Msg: msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{UID: uid}}}
}
func listen(f int) sim.Action { return sim.Action{Freq: f} }

func runPlans(t *testing.T, topo *Topology, plans [][]sim.Action, adv sim.Adversary, tBudget int) (*Result, []*planAgent) {
	t.Helper()
	agents := make([]*planAgent, len(plans))
	res, err := Run(&Config{
		F:        4,
		T:        tBudget,
		Seed:     1,
		Topology: topo,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			a := &planAgent{plan: plans[id]}
			agents[id] = a
			return a
		},
		Adversary: adv,
		MaxRounds: 1,
		RunToMax:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, agents
}

func TestHiddenTerminalCollision(t *testing.T) {
	// 0—1—2: the ends transmit on the same frequency; the middle hears a
	// collision even though the ends cannot hear each other.
	res, agents := runPlans(t, Line(3), [][]sim.Action{
		{tx(2, 10)},
		{listen(2)},
		{tx(2, 20)},
	}, nil, 0)
	if len(agents[1].got) != 0 {
		t.Fatal("middle node received through a hidden-terminal collision")
	}
	if res.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", res.Collisions)
	}
}

func TestNonNeighborIsolation(t *testing.T) {
	// 0—1—2—3: node 0 transmits; node 3 (two hops away) hears nothing,
	// node 1 (adjacent) hears it.
	_, agents := runPlans(t, Line(4), [][]sim.Action{
		{tx(2, 10)},
		{listen(2)},
		{listen(2)},
		{listen(2)},
	}, nil, 0)
	if len(agents[1].got) != 1 {
		t.Fatal("adjacent node missed the transmission")
	}
	if len(agents[2].got) != 0 || len(agents[3].got) != 0 {
		t.Fatal("distant node received across hops")
	}
}

func TestSpatialReuse(t *testing.T) {
	// 0—1—2—3—4: transmitters 0 and 4 are far apart; listeners 1 and 3
	// each hear their own neighbor on the same frequency simultaneously.
	_, agents := runPlans(t, Line(5), [][]sim.Action{
		{tx(2, 10)},
		{listen(2)},
		{listen(2)},
		{listen(2)},
		{tx(2, 40)},
	}, nil, 0)
	if len(agents[1].got) != 1 || agents[1].got[0].TS.UID != 10 {
		t.Fatal("listener 1 missed its neighbor")
	}
	if len(agents[3].got) != 1 || agents[3].got[0].TS.UID != 40 {
		t.Fatal("listener 3 missed its neighbor")
	}
	// The middle node neighbors neither transmitter... it neighbors 1 and
	// 3, which listen; it hears nothing.
	if len(agents[2].got) != 0 {
		t.Fatal("middle node heard a non-neighbor")
	}
}

func TestJammingAppliesNetworkWide(t *testing.T) {
	_, agents := runPlans(t, Line(3), [][]sim.Action{
		{tx(2, 10)},
		{listen(2)},
		{listen(2)},
	}, adversary.NewFixed(4, []int{2}), 1)
	if len(agents[1].got) != 0 {
		t.Fatal("delivery on jammed frequency")
	}
}

// TestCliqueMatchesSingleHop: on the complete graph the multi-hop engine
// must reproduce the single-hop engine's execution exactly (same seeds,
// same agents, same deliveries, same synchronization rounds).
func TestCliqueMatchesSingleHop(t *testing.T) {
	p := trapdoor.Params{N: 16, F: 6, T: 2}
	const n = 4
	single, err := sim.Run(&sim.Config{
		F: p.F, T: p.T, Seed: 5,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		},
		Schedule:  sim.Simultaneous{Count: n},
		Adversary: adversary.NewPrefix(p.F, p.T),
		MaxRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(&Config{
		F: p.F, T: p.T, Seed: 5,
		Topology: Clique(n),
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		},
		Adversary: adversary.NewPrefix(p.F, p.T),
		MaxRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !multi.AllSynced {
		t.Fatal("clique run did not sync")
	}
	for i := 0; i < n; i++ {
		if single.SyncRound[i] != multi.SyncRound[i] {
			t.Fatalf("node %d synced at %d (single-hop) vs %d (clique)",
				i, single.SyncRound[i], multi.SyncRound[i])
		}
	}
	if single.Stats.Deliveries != multi.Deliveries {
		t.Fatalf("deliveries %d vs %d", single.Stats.Deliveries, multi.Deliveries)
	}
}

func TestRelayMergeRule(t *testing.T) {
	p := trapdoor.Params{N: 4, F: 4, T: 1}
	n := MustNewRelay(p, rng.New(3))
	n.Step(1)
	// Adopt a numbering: now relaying.
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 99, UID: 7}, Round: 500, Scheme: 7})
	n.Step(2)
	if !n.Output().Synced || n.Scheme() != 7 {
		t.Fatalf("not relaying scheme 7: %v %d", n.Output(), n.Scheme())
	}
	// Smaller scheme: ignored.
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 1, UID: 3}, Round: 900, Scheme: 3})
	if n.Scheme() != 7 || n.Output().Value != 501 {
		t.Fatalf("merged downward: scheme=%d value=%d", n.Scheme(), n.Output().Value)
	}
	// Larger scheme: adopted.
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 1, UID: 9}, Round: 900, Scheme: 9})
	if n.Scheme() != 9 || n.Output().Value != 900 {
		t.Fatalf("did not merge upward: scheme=%d value=%d", n.Scheme(), n.Output().Value)
	}
	// Relays announce (statistically).
	transmitted := false
	for r := uint64(3); r < 60; r++ {
		if act := n.Step(r); act.Transmit {
			transmitted = true
			if act.Msg.Scheme != 9 {
				t.Fatalf("announced scheme %d, want 9", act.Msg.Scheme)
			}
		}
	}
	if !transmitted {
		t.Fatal("relay never announced")
	}
}

// TestRelaySynchronizesLine is the multi-hop headline: a line network
// converges to one scheme with consistent round numbers, in time that
// grows with the diameter.
func TestRelaySynchronizesLine(t *testing.T) {
	p := trapdoor.Params{N: 8, F: 6, T: 2}
	for _, length := range []int{3, 6} {
		nodes := make([]*RelayNode, length)
		res, err := Run(&Config{
			F: p.F, T: p.T, Seed: uint64(10 + length),
			Topology: Line(length),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n := MustNewRelay(p, r)
				nodes[id] = n
				return n
			},
			Adversary: adversary.NewRandom(p.F, p.T, uint64(length)),
			MaxRounds: 2_000_000,
			RunToMax:  false,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("line %d: not synced in %d rounds", length, res.Rounds)
		}
		// Let the merge finish: run is stopped at all-synced, but schemes
		// may still differ; drive a convergence check by verifying that
		// after additional rounds all schemes agree. Instead, re-run to a
		// fixed horizon and check final agreement.
		nodes2 := make([]*RelayNode, length)
		_, err = Run(&Config{
			F: p.F, T: p.T, Seed: uint64(10 + length),
			Topology: Line(length),
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n := MustNewRelay(p, r)
				nodes2[id] = n
				return n
			},
			Adversary: adversary.NewRandom(p.F, p.T, uint64(length)),
			MaxRounds: res.Rounds + 20000,
			RunToMax:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		scheme := nodes2[0].Scheme()
		value := nodes2[0].Output().Value
		for i, n := range nodes2 {
			if n.Scheme() != scheme {
				t.Fatalf("line %d: node %d scheme %d != %d", length, i, n.Scheme(), scheme)
			}
			if n.Output().Value != value {
				t.Fatalf("line %d: node %d value %d != %d", length, i, n.Output().Value, value)
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	ok := func() *Config {
		return &Config{
			F: 4, Topology: Line(2),
			NewAgent: func(sim.NodeID, uint64, *rng.Rand) sim.Agent { return &planAgent{plan: []sim.Action{listen(1)}} },
		}
	}
	cases := []func(*Config){
		func(c *Config) { c.F = 0 },
		func(c *Config) { c.T = 4 },
		func(c *Config) { c.Topology = nil },
		func(c *Config) { c.NewAgent = nil },
		func(c *Config) { c.Schedule = sim.Simultaneous{Count: 5} },
	}
	for i, mutate := range cases {
		cfg := ok()
		mutate(cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestRelayOnGeometricGraph runs the relay protocol on a connected random
// geometric graph — the realistic ad hoc deployment shape.
func TestRelayOnGeometricGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	topo := RandomGeometricConnected(12, 0.55, 0)
	p := trapdoor.Params{N: 16, F: 6, T: 2}
	nodes := make([]*RelayNode, topo.N())
	res, err := Run(&Config{
		F: p.F, T: p.T, Seed: 9,
		Topology: topo,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			n := MustNewRelay(p, r)
			nodes[id] = n
			return n
		},
		Adversary: adversary.NewRandom(p.F, p.T, 99),
		MaxRounds: 2_000_000,
		RunToMax:  true,
		StopWhen: func(uint64) bool {
			var scheme uint64
			for i, n := range nodes {
				if n == nil || !n.Output().Synced {
					return false
				}
				if i == 0 {
					scheme = n.Scheme()
				} else if n.Scheme() != scheme {
					return false
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitMaxRounds {
		t.Fatalf("geometric graph never agreed (rounds=%d)", res.Rounds)
	}
}

// Property: random geometric graphs have symmetric adjacency and respect
// the radius.
func TestQuickGeometricAdjacency(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		topo := RandomGeometric(15, 0.3, seed)
		for i := 0; i < topo.N(); i++ {
			for _, j := range topo.Neighbors(i) {
				found := false
				for _, k := range topo.Neighbors(j) {
					if k == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d: edge (%d,%d) not symmetric", seed, i, j)
				}
				if i == j {
					t.Fatalf("seed %d: self-loop at %d", seed, i)
				}
			}
		}
	}
}
