package sim

import (
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// alloc_test.go pins the tentpole property of the engine's hot path: a
// steady-state round — after every node has activated and every reusable
// buffer has grown to its working size — performs zero heap allocations.
// The test is white-box (package sim) because the unit under test is
// engine.runRound, not the public Run wrapper; it cannot use package
// adversary or multihop (which import sim), so it carries a local random
// jammer mirroring adversary.Random and a local grid and edge-flip hook
// mirroring multihop.Grid and churn.Flip.

// allocJammer is adversary.Random re-implemented without the import
// cycle: a fresh uniform t-subset per round, drawn allocation-free via
// rng.SampleKInto into a reused scratch buffer.
type allocJammer struct {
	f, t    int
	r       *rng.Rand
	set     *freqset.Set
	scratch []int
}

func (a *allocJammer) Disrupt(uint64, *History) *freqset.Set {
	a.set.Clear()
	a.scratch = a.r.SampleKInto(a.f, a.t, a.scratch)
	for _, idx := range a.scratch {
		a.set.Add(idx + 1)
	}
	return a.set
}

// blindAllocJammer is allocJammer declared HistoryBlind: with no
// observers, rounds run without building a record at all.
type blindAllocJammer struct{ allocJammer }

func (*blindAllocJammer) IgnoresHistory() {}

// newAllocAdversary returns the allocJammer with budget jam over [1..f],
// declared HistoryBlind when blind is set.
func newAllocAdversary(f, jam int, blind bool) Adversary {
	a := allocJammer{f: f, t: jam, r: rng.New(99), set: freqset.New(f), scratch: make([]int, 0, jam)}
	if blind {
		return &blindAllocJammer{a}
	}
	return &a
}

// allocJammers names the two record modes every alloc test runs under: an
// unmarked jammer (records built and shared as History.Last) and a blind
// one (no records).
var allocJammers = []struct {
	name  string
	blind bool
}{{"unmarked", false}, {"blind", true}}

// steadyAgent transmits with probability 1/2 on a random frequency and
// never syncs, so a driven round exercises the step, resolve, deliver,
// and output-recording paths indefinitely. Its message carries no slices
// — payload-bearing protocols own their buffers; the engine's obligation
// is only to not allocate on its own account.
type steadyAgent struct {
	r     *rng.Rand
	f     int
	heard uint64
	arena *steadyArena
}

func (a *steadyAgent) step(local uint64, m *msg.Message) (int32, bool) {
	f := int32(a.r.IntRange(1, a.f))
	if a.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
		return f, true
	}
	return f, false
}

func (a *steadyAgent) Step(local uint64) Action {
	var act Action
	f, tx := a.step(local, &act.Msg)
	act.Freq, act.Transmit = int(f), tx
	return act
}

func (a *steadyAgent) Deliver(msg.Message) { a.heard++ }
func (a *steadyAgent) Output() Output      { return Output{} }

func (a *steadyAgent) Cohort() any {
	if a.arena == nil || a.arena.solo {
		return nil
	}
	return a.arena
}

func (a *steadyAgent) StepBatch(ids []int, r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message, outs []Output) {
	nodes := a.arena.nodes
	for _, id := range ids {
		nd := &nodes[id]
		f, tx := nd.step(r-activation[id]+1, &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
		outs[id] = nd.Output()
	}
}

// steadyArena mirrors the protocol arenas: slab construction with no
// per-activation allocation. With solo set, its agents opt out of batching
// (Cohort() nil) so the per-node fallback's activation path is pinned too.
type steadyArena struct {
	f     int
	solo  bool
	nodes []steadyAgent
}

func (a *steadyArena) NewAgent(id NodeID, activation uint64, r *rng.Rand) Agent {
	nd := &a.nodes[id]
	*nd = steadyAgent{r: r, f: a.f, arena: a}
	return nd
}

// allocSchedule activates node i in round s[i].
type allocSchedule []uint64

func (s allocSchedule) N() int                       { return len(s) }
func (s allocSchedule) ActivationRound(i int) uint64 { return s[i] }

// allocGrid is multihop.Grid re-implemented without the import cycle
// (internal/multihop imports this package): the w×h grid with
// 4-neighborhoods, adjacency lists ascending.
type allocGrid struct {
	adj [][]int
}

func newAllocGrid(w, h int) *allocGrid {
	g := &allocGrid{adj: make([][]int, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if y > 0 {
				g.adj[i] = append(g.adj[i], i-w)
			}
			if x > 0 {
				g.adj[i] = append(g.adj[i], i-1)
			}
			if x+1 < w {
				g.adj[i] = append(g.adj[i], i+1)
			}
			if y+1 < h {
				g.adj[i] = append(g.adj[i], i+w)
			}
		}
	}
	return g
}

func (g *allocGrid) N() int                { return len(g.adj) }
func (g *allocGrid) Neighbors(i int) []int { return g.adj[i] }

// allocFlip is the per-round graph hook multihop's churn driver installs,
// reduced to churn.Flip: from round 2 on, every base edge independently
// toggles presence each round, patched into the grid's sorted adjacency in
// place. Degree never exceeds the base graph's, so the adjacency slices
// never outgrow their initial capacity.
type allocFlip struct {
	g     *allocGrid
	edges [][2]int
	on    []bool
	rate  float64
	r     *rng.Rand
	flips int
}

func newAllocFlip(g *allocGrid, rate float64, seed uint64) *allocFlip {
	m := &allocFlip{g: g, rate: rate, r: rng.New(seed)}
	for a, nbrs := range g.adj {
		for _, b := range nbrs {
			if b > a {
				m.edges = append(m.edges, [2]int{a, b})
				m.on = append(m.on, true)
			}
		}
	}
	return m
}

func (m *allocFlip) graphAt(r uint64) medium.Graph {
	if r < 2 {
		return m.g
	}
	adj := m.g.adj
	for k, ed := range m.edges {
		if !m.r.Bernoulli(m.rate) {
			continue
		}
		a, b := ed[0], ed[1]
		if m.on[k] {
			adj[a], adj[b] = removeSorted(adj[a], b), removeSorted(adj[b], a)
		} else {
			adj[a], adj[b] = insertSorted(adj[a], b), insertSorted(adj[b], a)
		}
		m.on[k] = !m.on[k]
		m.flips++
	}
	return m.g
}

// removeSorted deletes x from ascending slice s in place.
func removeSorted(s []int, x int) []int {
	for j, v := range s {
		if v == x {
			copy(s[j:], s[j+1:])
			return s[:len(s)-1]
		}
	}
	return s
}

// TestSteadyStateAllocs drives the round loop past warm-up and requires
// exactly zero allocations per round. The churned
// variant additionally swaps the resolver's graph every round (complete
// graph in, nil back out): per-round SetGraph swaps on a live engine are
// allocation-free once warm. The graph variants run the same core on an
// 8×8 grid, as multihop's drivers do; graph-churned installs a per-round
// edge-flip hook, the dynamic-topology path churned multihop runs take.
// Every variant runs with an unmarked and with a HistoryBlind jammer.
func TestSteadyStateAllocs(t *testing.T) {
	for _, path := range []struct {
		name  string
		churn bool
		graph bool
	}{{name: "indexed"},
		{name: "churned", churn: true},
		{name: "graph-indexed", graph: true},
		{name: "graph-churned", graph: true, churn: true}} {
		t.Run(path.name, func(t *testing.T) {
			for _, jammer := range allocJammers {
				t.Run(jammer.name, func(t *testing.T) {
					const f, jam, n = 16, 4, 64
					cfg := &Config{
						F:    f,
						T:    jam,
						Seed: 7,
						NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
							return &steadyAgent{r: r, f: f}
						},
						Adversary:      newAllocAdversary(f, jam, jammer.blind),
						RunToMaxRounds: true,
					}
					cfg.Schedule = Simultaneous{Count: n}
					var graph medium.Graph
					var flip *allocFlip
					if path.graph {
						grid := newAllocGrid(8, 8)
						graph = grid
						if path.churn {
							flip = newAllocFlip(grid, 0.2, 123)
						}
					}
					e, err := newEngine(cfg, graph)
					if err != nil {
						t.Fatal(err)
					}
					if flip != nil {
						e.graphAt = flip.graphAt
					}
					// Warm-up: activate everyone and let every growable buffer
					// (active list, touched/listener/pending lists, the round
					// record) reach its working capacity.
					// An explicit complete graph forces graph-mode resolution
					// without changing any result. Held as an interface, so
					// the per-round SetGraph converts nothing.
					var complete medium.Graph
					swap := path.churn && !path.graph
					if swap {
						complete = NewClique(n)
					}
					r := uint64(0)
					for ; r < 64; r++ {
						if swap {
							if r%2 == 0 {
								e.med.SetGraph(complete)
							} else {
								e.med.SetGraph(nil)
							}
						}
						e.runRound(r + 1)
					}
					allocs := testing.AllocsPerRun(100, func() {
						r++
						if swap {
							if r%2 == 0 {
								e.med.SetGraph(complete)
							} else {
								e.med.SetGraph(nil)
							}
						}
						e.runRound(r)
					})
					if allocs != 0 {
						t.Fatalf("steady-state round allocates %.1f objects, want 0", allocs)
					}
					if flip != nil && flip.flips == 0 {
						t.Fatal("graph-churned subtest never flipped an edge; the alloc check ran vacuously")
					}
					if e.record == jammer.blind {
						t.Fatalf("record = %v with a blind=%v jammer and no observers", e.record, jammer.blind)
					}
				})
			}
		})
	}
}

// TestActivationRoundAllocs extends the zero-alloc contract to activation
// rounds: with arena-built agents (rng states pre-split into the engine's
// slab, construction into arena slots), a round that wakes new nodes
// allocates nothing either. Warm-up activates the bulk of the population;
// four stragglers then activate inside the measured window, exercising
// Wake, arena construction, and cohort insertion (batch variant) or the
// sorted solo list (solo variant) under AllocsPerRun. The graph variant
// runs the straggler wave on an 8×8 grid, the multihop activation path.
// Every variant runs with an unmarked and with a HistoryBlind jammer.
func TestActivationRoundAllocs(t *testing.T) {
	const f, jam, n = 16, 4, 64
	for _, tc := range []struct {
		name  string
		solo  bool
		graph bool
	}{{name: "batch"}, {name: "solo", solo: true}, {name: "graph", graph: true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, jammer := range allocJammers {
				t.Run(jammer.name, func(t *testing.T) {
					sched := make(allocSchedule, n)
					for i := range sched {
						sched[i] = 1
					}
					// Stragglers activate at rounds 72..102, inside the window.
					sched[n-4], sched[n-3], sched[n-2], sched[n-1] = 72, 82, 92, 102
					arena := &steadyArena{f: f, solo: tc.solo, nodes: make([]steadyAgent, n)}
					cfg := &Config{
						F:              f,
						T:              jam,
						Seed:           7,
						NewAgent:       arena.NewAgent,
						Adversary:      newAllocAdversary(f, jam, jammer.blind),
						RunToMaxRounds: true,
						Schedule:       sched,
					}
					var graph medium.Graph
					if tc.graph {
						graph = newAllocGrid(8, 8)
					}
					e, err := newEngine(cfg, graph)
					if err != nil {
						t.Fatal(err)
					}
					r := uint64(0)
					for ; r < 64; r++ {
						e.runRound(r + 1)
					}
					allocs := testing.AllocsPerRun(100, func() {
						r++
						e.runRound(r)
					})
					if allocs != 0 {
						t.Fatalf("activation-inclusive round allocates %.1f objects, want 0", allocs)
					}
					if got := len(e.act.Active()); got != n {
						t.Fatalf("only %d of %d nodes activated; the window missed the stragglers", got, n)
					}
				})
			}
		})
	}
}
