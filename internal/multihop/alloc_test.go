package multihop

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// allocAgent transmits with probability 1/2 on a random frequency and
// never syncs, so driven rounds exercise the step, resolve, relay-deliver,
// and sync-check paths indefinitely without allocating on its own account.
type allocAgent struct {
	r     *rng.Rand
	f     int
	heard uint64
	arena *allocArena
}

func (a *allocAgent) step(local uint64, m *msg.Message) (int32, bool) {
	f := int32(a.r.IntRange(1, a.f))
	if a.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
		return f, true
	}
	return f, false
}

func (a *allocAgent) Step(local uint64) sim.Action {
	var act sim.Action
	f, tx := a.step(local, &act.Msg)
	act.Freq, act.Transmit = int(f), tx
	return act
}

func (a *allocAgent) Deliver(msg.Message) { a.heard++ }
func (a *allocAgent) Output() sim.Output  { return sim.Output{} }

func (a *allocAgent) Cohort() any {
	if a.arena == nil {
		return nil
	}
	return a.arena
}

func (a *allocAgent) StepBatch(ids []int, locals []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message) {
	nodes := a.arena.nodes
	for j, id := range ids {
		f, tx := nodes[id].step(locals[j], &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
	}
}

// allocArena mirrors the protocol arenas: slab construction with no
// per-activation allocation.
type allocArena struct {
	f     int
	nodes []allocAgent
}

func (a *allocArena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	nd := &a.nodes[id]
	*nd = allocAgent{r: r, f: a.f, arena: a}
	return nd
}

// allocSchedule activates node i in round s[i].
type allocSchedule []uint64

func (s allocSchedule) N() int                       { return len(s) }
func (s allocSchedule) ActivationRound(i int) uint64 { return s[i] }

// allocFlip is churn.Flip re-implemented without the import cycle
// (internal/churn imports this package): every base edge independently
// toggles presence each round, deltas emitted into reused buffers. Degree
// never exceeds the base graph's, so once the driver's adjacency slices
// warm up to base capacity a churned round patches them in place.
type allocFlip struct {
	edges       []Edge
	on          []bool
	rate        float64
	r           *rng.Rand
	add, remove []Edge
}

func newAllocFlip(base *Topology, rate float64, seed uint64) *allocFlip {
	edges := base.AppendEdges(nil)
	on := make([]bool, len(edges))
	for i := range on {
		on[i] = true
	}
	return &allocFlip{edges: edges, on: on, rate: rate, r: rng.New(seed)}
}

func (m *allocFlip) Deltas(uint64) (add, remove []Edge) {
	m.add, m.remove = m.add[:0], m.remove[:0]
	for i, e := range m.edges {
		if !m.r.Bernoulli(m.rate) {
			continue
		}
		if m.on[i] {
			m.remove = append(m.remove, e)
		} else {
			m.add = append(m.add, e)
		}
		m.on[i] = !m.on[i]
	}
	return m.add, m.remove
}

// roundAllocs measures, black-box through Run, the mean allocations of a
// round past warm-up: a run of warm+100 rounds minus a run of warm rounds,
// over the 100 rounds between. Both runs build identical state, so setup
// cancels; what remains is the rounds themselves — the round core plus
// this package's driver and churn path. mk must build a fresh config
// (stateful adversaries, churn models, and arenas replay from scratch).
func roundAllocs(t *testing.T, warm uint64, mk func(maxRounds uint64) *Config) float64 {
	t.Helper()
	const window = 100
	run := func(rounds uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(mk(rounds)); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(warm+window) - run(warm)) / window
}

// TestSteadyStateAllocs drives multi-hop runs past warm-up on both medium
// paths and on a churned grid and requires zero allocations per round —
// the multi-hop half of the zero-alloc hot-path contract. The white-box
// pins of the round core itself live in internal/sim; this one adds the
// driver: config translation happens once per run, and a churned round's
// delta application patches warmed adjacency in place.
func TestSteadyStateAllocs(t *testing.T) {
	for _, path := range []struct {
		name  string
		m     sim.MediumPath
		churn bool
	}{{name: "indexed", m: sim.MediumIndexed}, {name: "scan", m: sim.MediumScan},
		{name: "churned", m: sim.MediumIndexed, churn: true}} {
		t.Run(path.name, func(t *testing.T) {
			const f, jam = 16, 4
			mk := func(maxRounds uint64) *Config {
				cfg := &Config{
					F:        f,
					T:        jam,
					Seed:     7,
					Topology: Grid(8, 8),
					NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
						return &allocAgent{r: r, f: f}
					},
					Adversary: adversary.NewRandom(f, jam, 99),
					MaxRounds: maxRounds,
					RunToMax:  true,
					Medium:    path.m,
				}
				if path.churn {
					cfg.Churn = newAllocFlip(cfg.Topology, 0.2, 123)
				}
				return cfg
			}
			if allocs := roundAllocs(t, 64, mk); allocs >= 1 {
				t.Fatalf("steady-state round allocates %.2f objects, want 0", allocs)
			}
			if path.churn {
				res, err := Run(mk(164))
				if err != nil {
					t.Fatal(err)
				}
				if res.ChurnRounds == 0 {
					t.Fatal("churned subtest never applied a delta; the alloc check ran vacuously")
				}
			}
		})
	}
}

// TestActivationRoundAllocs extends the zero-alloc contract to activation
// rounds on multi-hop runs: with arena-built agents, a round that wakes
// new nodes (Wake, arena construction, cohort insertion) allocates
// nothing. Four stragglers activate inside the measured window.
func TestActivationRoundAllocs(t *testing.T) {
	const f, jam = 16, 4
	n := Grid(8, 8).N()
	sched := make(allocSchedule, n)
	for i := range sched {
		sched[i] = 1
	}
	// Stragglers activate at rounds 72..102, inside the window.
	sched[n-4], sched[n-3], sched[n-2], sched[n-1] = 72, 82, 92, 102
	mk := func(maxRounds uint64) *Config {
		arena := &allocArena{f: f, nodes: make([]allocAgent, n)}
		return &Config{
			F:         f,
			T:         jam,
			Seed:      7,
			Topology:  Grid(8, 8),
			NewAgent:  arena.NewAgent,
			Schedule:  sched,
			Adversary: adversary.NewRandom(f, jam, 99),
			MaxRounds: maxRounds,
			RunToMax:  true,
		}
	}
	if allocs := roundAllocs(t, 64, mk); allocs >= 1 {
		t.Fatalf("activation-inclusive round allocates %.2f objects, want 0", allocs)
	}
	res, err := Run(mk(164))
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, a := range sched {
		want += 164 - a + 1
	}
	if res.NodeRounds != want {
		t.Fatalf("%d node-rounds, want %d; the window missed the stragglers", res.NodeRounds, want)
	}
}

// TestChurnDeltaAllocs pins the driver's in-place delta application on its
// own: once the adjacency slices have warmed to the base graph's capacity,
// applying a round's InsertEdge/DeleteEdge deltas allocates nothing.
func TestChurnDeltaAllocs(t *testing.T) {
	base := Grid(8, 8)
	ch := &churner{cfg: &Config{Churn: newAllocFlip(base, 0.2, 123)}, topo: base.Clone()}
	r := uint64(0)
	for ; r < 64; r++ {
		ch.graphAt(r + 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r++
		ch.graphAt(r)
	})
	if allocs != 0 {
		t.Fatalf("churned round allocates %.1f objects, want 0", allocs)
	}
	if ch.rounds == 0 {
		t.Fatal("no delta applied; the alloc check ran vacuously")
	}
}
