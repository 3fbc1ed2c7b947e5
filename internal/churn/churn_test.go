package churn

import (
	"fmt"
	"testing"

	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/simtest"
)

// churnAgent takes random actions, synchronizes after a drawn number of
// receptions, and logs everything it hears — a pure function of its rng
// stream and deliveries, so identical deliveries imply identical runs.
type churnAgent struct {
	r      *rng.Rand
	f      int
	needed int
	leader bool
	heard  []uint64
}

func newChurnAgent(r *rng.Rand, f int) *churnAgent {
	return &churnAgent{r: r, f: f, needed: 1 + r.Intn(4), leader: r.Bool()}
}

func (a *churnAgent) Step(local uint64) sim.Action {
	freq := 1 + a.r.Intn(a.f)
	if a.r.Bool() {
		return sim.Action{Freq: freq, Transmit: true,
			Msg: msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local, UID: a.r.Uint64() % 1024}}}
	}
	return sim.Action{Freq: freq}
}

func (a *churnAgent) Deliver(m msg.Message) { a.heard = append(a.heard, m.TS.UID) }

func (a *churnAgent) Output() sim.Output {
	if len(a.heard) >= a.needed {
		return sim.Output{Value: uint64(len(a.heard)), Synced: true}
	}
	return sim.Output{}
}

func (a *churnAgent) IsLeader() bool { return a.leader }

// edgeKey packs a normalized undirected edge into a comparable key.
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// keyEdge unpacks edgeKey.
func keyEdge(key uint64) multihop.Edge {
	return multihop.Edge{A: int(key >> 32), B: int(key & (1<<32 - 1))}
}

// recordingModel forwards a Model's deltas while folding them into its
// own edge set, re-checking the strict delta contract with test context.
// After a run the set is the evolved graph, independently derived on the
// delta and rebuild runs and compared between them; during a rebuilt run
// it is the graph the round resolves on.
type recordingModel struct {
	t     *testing.T
	inner Model
	set   map[uint64]struct{}
}

func newRecording(t *testing.T, inner Model) *recordingModel {
	set := make(map[uint64]struct{})
	for _, e := range inner.Topology().AppendEdges(nil) {
		set[edgeKey(e.A, e.B)] = struct{}{}
	}
	return &recordingModel{t: t, inner: inner, set: set}
}

func (m *recordingModel) Deltas(r uint64) (add, remove []multihop.Edge) {
	add, remove = m.inner.Deltas(r)
	for _, e := range remove {
		key := edgeKey(e.A, e.B)
		if _, ok := m.set[key]; !ok {
			m.t.Fatalf("round %d: model removed absent edge (%d, %d)", r, e.A, e.B)
		}
		delete(m.set, key)
	}
	for _, e := range add {
		key := edgeKey(e.A, e.B)
		if _, ok := m.set[key]; ok {
			m.t.Fatalf("round %d: model added present edge (%d, %d)", r, e.A, e.B)
		}
		m.set[key] = struct{}{}
	}
	return add, remove
}

// newAgents returns a NewAgent that builds churn agents into agents.
func newAgents(f int, agents []*churnAgent) func(sim.NodeID, uint64, *rng.Rand) sim.Agent {
	return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		a := newChurnAgent(r, f)
		agents[id] = a
		return a
	}
}

// logs collects every node's reception log (nil for nodes never built).
func logs(agents []*churnAgent) [][]uint64 {
	heard := make([][]uint64, len(agents))
	for i, a := range agents {
		if a != nil {
			heard[i] = a.heard
		}
	}
	return heard
}

// runChurned executes one churned run through the multihop driver, which
// patches its topology in place, and returns the Result, every node's
// reception log, and the independently folded final edge set.
func runChurned(t *testing.T, mk func() Model, f int, seed, maxRounds uint64, runToMax bool) (*multihop.Result, [][]uint64, map[uint64]struct{}) {
	t.Helper()
	model := mk()
	rec := newRecording(t, model)
	topo := model.Topology()
	agents := make([]*churnAgent, topo.N())
	res, err := multihop.Run(&multihop.Config{
		F:         f,
		Seed:      seed,
		Topology:  topo,
		NewAgent:  newAgents(f, agents),
		MaxRounds: maxRounds,
		RunToMax:  runToMax,
		Churn:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, logs(agents), rec.set
}

// runRebuilt executes runChurned's run on the round core directly:
// sim.RunGraph with a graph hook that folds the recorded deltas into an
// edge set and builds each churned round's graph afresh from it with
// multihop.NewTopologyFromEdges. A simtest.Oracle checks every round
// against the reception rule on that same graph; its verdict is the
// returned error. The run is projected onto multihop.Result the way the
// driver projects its own.
func runRebuilt(t *testing.T, mk func() Model, f int, seed, maxRounds uint64, runToMax bool) (*multihop.Result, [][]uint64, map[uint64]struct{}, error) {
	t.Helper()
	model := mk()
	rec := newRecording(t, model)
	graph := model.Topology()
	n := graph.N()
	var rounds, edgeOps uint64
	graphAt := func(r uint64) medium.Graph {
		if r < 2 {
			return graph
		}
		add, remove := rec.Deltas(r)
		if len(add) == 0 && len(remove) == 0 {
			return graph
		}
		edges := make([]multihop.Edge, 0, len(rec.set))
		for key := range rec.set {
			edges = append(edges, keyEdge(key))
		}
		graph = multihop.NewTopologyFromEdges(n, edges)
		rounds++
		edgeOps += uint64(len(add) + len(remove))
		return graph
	}
	oracle := &simtest.Oracle{Graph: func(uint64) medium.Graph { return graph }}
	agents := make([]*churnAgent, n)
	s, err := sim.RunGraph(&sim.Config{
		F:              f,
		Seed:           seed,
		NewAgent:       newAgents(f, agents),
		Schedule:       sim.Simultaneous{Count: n},
		MaxRounds:      maxRounds,
		RunToMaxRounds: runToMax,
		Observers:      []sim.Observer{oracle},
	}, graph, graphAt)
	if err != nil {
		t.Fatal(err)
	}
	res := &multihop.Result{
		Rounds:       s.Stats.Rounds,
		NodeRounds:   s.Stats.NodeRounds,
		AllSynced:    s.AllSynced,
		SyncRound:    s.SyncRound,
		Leaders:      s.Leaders,
		Deliveries:   s.Stats.Deliveries,
		Collisions:   s.Stats.Collisions,
		HitMaxRounds: s.Stats.Rounds == maxRounds && !s.AllSynced,
		ChurnRounds:  rounds,
		ChurnEdges:   edgeOps,
	}
	return res, logs(agents), rec.set, oracle.CheckResult(s)
}

// diffChurn describes the first divergence between the two runs, or "".
func diffChurn(a, b *multihop.Result, heardA, heardB [][]uint64, setA, setB map[uint64]struct{}) string {
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
	case a.ChurnRounds != b.ChurnRounds:
		return fmt.Sprintf("ChurnRounds %d vs %d", a.ChurnRounds, b.ChurnRounds)
	case a.ChurnEdges != b.ChurnEdges:
		return fmt.Sprintf("ChurnEdges %d vs %d", a.ChurnEdges, b.ChurnEdges)
	case len(setA) != len(setB):
		return fmt.Sprintf("final edge count %d vs %d", len(setA), len(setB))
	}
	for i := range a.SyncRound {
		if a.SyncRound[i] != b.SyncRound[i] {
			return fmt.Sprintf("SyncRound[%d] %d vs %d", i, a.SyncRound[i], b.SyncRound[i])
		}
	}
	for key := range setA {
		if _, ok := setB[key]; !ok {
			e := keyEdge(key)
			return fmt.Sprintf("final edge (%d, %d) only in delta run", e.A, e.B)
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

// drawCase picks a randomized churn workload: a label and a factory that
// builds identical fresh model instances (one per run — models are
// stateful and drive exactly one run each).
func drawCase(r *rng.Rand) (string, func() Model) {
	switch r.IntRange(0, 4) {
	case 0:
		w, h := r.IntRange(2, 6), r.IntRange(2, 6)
		rate, seed := 0.02+r.Float64()*0.3, r.Uint64()
		return fmt.Sprintf("flip-grid-%dx%d", w, h),
			func() Model { return NewFlip(multihop.Grid(w, h), rate, seed) }
	case 1:
		n, radius := r.IntRange(8, 48), 0.1+r.Float64()*0.4
		rate, gseed, seed := 0.02+r.Float64()*0.3, r.Uint64(), r.Uint64()
		return fmt.Sprintf("flip-rgg-%d", n),
			func() Model { return NewFlip(multihop.RandomGeometric(n, radius, gseed), rate, seed) }
	case 2:
		n := r.IntRange(16, 160)
		radius, speed := 0.1+r.Float64()*0.3, 0.005+r.Float64()*0.05
		movers, seed := r.IntRange(0, n), r.Uint64()
		return fmt.Sprintf("waypoint-%d", n),
			func() Model { return NewWaypoint(n, radius, speed, movers, seed) }
	case 3:
		w, h := r.IntRange(2, 6), r.IntRange(2, 6)
		period := uint64(r.IntRange(4, 20))
		down := uint64(r.IntRange(1, int(period)-1))
		return fmt.Sprintf("partition-grid-%dx%d", w, h),
			func() Model { return NewPartition(multihop.Grid(w, h), period, down) }
	default:
		n, radius, gseed := r.IntRange(8, 48), 0.2+r.Float64()*0.3, r.Uint64()
		budget := r.IntRange(1, 4)
		every, heal := uint64(r.IntRange(1, 6)), uint64(r.IntRange(1, 8))
		return fmt.Sprintf("targeted-rgg-%d", n),
			func() Model { return NewTargetedCut(multihop.RandomGeometric(n, radius, gseed), budget, every, heal) }
	}
}

// TestChurnDeltaMatchesRebuild is the family's headline invariant: a
// churned run must be byte-identical whether the multihop driver evolves
// the graph via in-place delta mutations or the graph is rebuilt from
// scratch every churned round (runRebuilt), and the rebuilt run must
// match the brute-force reception rule in every round. The delta run has
// no observer, so the pair also covers the core's no-record path.
// Randomized mobility traces, seeds, and model kinds; the heavy subcase
// pushes a waypoint sweep to N=1024.
func TestChurnDeltaMatchesRebuild(t *testing.T) {
	master := rng.New(0x6368)
	cases := 40
	if testing.Short() {
		cases = 12
	}
	var churned uint64
	for c := 0; c < cases; c++ {
		r := master.Split(uint64(c))
		label, mk := drawCase(r)
		f := r.IntRange(2, 12)
		seed := r.Uint64()
		maxRounds := uint64(r.IntRange(40, 120))
		runToMax := r.Bool()
		deltaRes, deltaHeard, deltaSet := runChurned(t, mk, f, seed, maxRounds, runToMax)
		rebRes, rebHeard, rebSet, err := runRebuilt(t, mk, f, seed, maxRounds, runToMax)
		if err != nil {
			t.Fatalf("case %d (%s F=%d rounds=%d): rebuilt run vs the rule: %v", c, label, f, maxRounds, err)
		}
		if d := diffChurn(deltaRes, rebRes, deltaHeard, rebHeard, deltaSet, rebSet); d != "" {
			t.Fatalf("case %d (%s F=%d rounds=%d): delta vs rebuild divergence: %s",
				c, label, f, maxRounds, d)
		}
		churned += deltaRes.ChurnRounds
	}
	if churned == 0 {
		t.Fatal("no case churned a single round; the differential ran vacuously")
	}
	if testing.Short() {
		return
	}
	mk := func() Model { return NewWaypoint(1024, 0.06, 0.01, 128, 0xbeef) }
	deltaRes, deltaHeard, deltaSet := runChurned(t, mk, 8, 0xfeed, 60, true)
	rebRes, rebHeard, rebSet, err := runRebuilt(t, mk, 8, 0xfeed, 60, true)
	if err != nil {
		t.Fatalf("waypoint-1024: rebuilt run vs the rule: %v", err)
	}
	if d := diffChurn(deltaRes, rebRes, deltaHeard, rebHeard, deltaSet, rebSet); d != "" {
		t.Fatalf("waypoint-1024: delta vs rebuild divergence: %s", d)
	}
	if deltaRes.ChurnRounds == 0 {
		t.Fatal("waypoint-1024 never churned")
	}
}

// reversed emits its model's deltas with each round's add and remove
// slices in reverse order, and counts the rounds where that reorders
// anything.
type reversed struct {
	Model
	add, remove []multihop.Edge
	reordered   int
}

func (m *reversed) Deltas(r uint64) (add, remove []multihop.Edge) {
	add, remove = m.Model.Deltas(r)
	if len(add) > 1 || len(remove) > 1 {
		m.reordered++
	}
	m.add, m.remove = m.add[:0], m.remove[:0]
	for i := len(add) - 1; i >= 0; i-- {
		m.add = append(m.add, add[i])
	}
	for i := len(remove) - 1; i >= 0; i-- {
		m.remove = append(m.remove, remove[i])
	}
	return m.add, m.remove
}

// TestChurnDeltaOrderIndependent pins that a run does not depend on the
// order of a round's deltas: with each round's add and remove slices
// reversed, the waypoint, flip and partition models give the same Result
// and every node the same reception log.
func TestChurnDeltaOrderIndependent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Model
	}{
		{"waypoint", func() Model { return NewWaypoint(160, 0.2, 0.03, 80, 11) }},
		{"flip", func() Model { return NewFlip(multihop.Grid(6, 6), 0.2, 12) }},
		{"partition", func() Model { return NewPartition(multihop.Grid(6, 6), 8, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, heard, set := runChurned(t, tc.mk, 6, 5, 120, true)
			var rev *reversed
			mkRev := func() Model { rev = &reversed{Model: tc.mk()}; return rev }
			revRes, revHeard, revSet := runChurned(t, mkRev, 6, 5, 120, true)
			if d := diffChurn(res, revRes, heard, revHeard, set, revSet); d != "" {
				t.Fatalf("reversed deltas diverge: %s", d)
			}
			if rev.reordered == 0 {
				t.Fatal("no round had two adds or two removes; the reversal reordered nothing")
			}
		})
	}
}

// TestFlipRateOneTogglesEverything pins Flip's semantics at the boundary:
// rate 1 removes every edge in round 2, restores every edge in round 3.
func TestFlipRateOneTogglesEverything(t *testing.T) {
	base := multihop.Grid(3, 3)
	m := NewFlip(base, 1, 7)
	add, remove := m.Deltas(2)
	if len(add) != 0 || len(remove) != base.EdgeCount() {
		t.Fatalf("round 2: add=%d remove=%d, want 0/%d", len(add), len(remove), base.EdgeCount())
	}
	add, remove = m.Deltas(3)
	if len(add) != base.EdgeCount() || len(remove) != 0 {
		t.Fatalf("round 3: add=%d remove=%d, want %d/0", len(add), len(remove), base.EdgeCount())
	}
}

// TestPartitionSchedule checks the cut opens exactly for the last down
// rounds of each period and replays the precomputed crossing set.
func TestPartitionSchedule(t *testing.T) {
	base := multihop.Grid(4, 4)
	m := NewPartition(base, 6, 2)
	if m.CrossingEdges() == 0 {
		t.Fatal("grid bipartition severed no edges")
	}
	cut := false
	for r := uint64(2); r <= 20; r++ {
		add, remove := m.Deltas(r)
		wantCut := (r-1)%6 >= 4
		switch {
		case wantCut && !cut:
			if len(remove) != m.CrossingEdges() || len(add) != 0 {
				t.Fatalf("round %d: expected full cut, got add=%d remove=%d", r, len(add), len(remove))
			}
			cut = true
		case !wantCut && cut:
			if len(add) != m.CrossingEdges() || len(remove) != 0 {
				t.Fatalf("round %d: expected full heal, got add=%d remove=%d", r, len(add), len(remove))
			}
			cut = false
		default:
			if len(add) != 0 || len(remove) != 0 {
				t.Fatalf("round %d: expected quiet round, got add=%d remove=%d", r, len(add), len(remove))
			}
		}
	}
	if !cut && (uint64(20)-1)%6 >= 4 {
		t.Fatal("schedule state diverged from oracle")
	}
}

// TestWaypointMatchesBruteForce cross-checks the grid-accelerated
// incremental diff against a brute-force O(n²) recomputation of the
// geometric graph from the model's own positions, every round.
func TestWaypointMatchesBruteForce(t *testing.T) {
	m := NewWaypoint(64, 0.25, 0.03, 17, 42)
	check := func(r uint64) {
		for i := 0; i < m.n; i++ {
			for j := i + 1; j < m.n; j++ {
				want := m.inRange(i, j)
				if got := m.topo.HasEdge(i, j); got != want {
					t.Fatalf("round %d: edge (%d, %d) present=%v, geometry says %v", r, i, j, got, want)
				}
			}
		}
	}
	check(1)
	for r := uint64(2); r <= 50; r++ {
		m.Deltas(r)
		check(r)
	}
}

// TestTargetedCutStrikesBridge builds a barbell — two triangles joined by
// one bridge — and checks the first strike severs exactly the bridge and
// the heal restores it on schedule.
func TestTargetedCutStrikesBridge(t *testing.T) {
	// Nodes 0-2 and 3-5 are triangles; (2,3) is the bridge.
	base := multihop.NewTopologyFromEdges(6, []multihop.Edge{
		{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 2},
		{A: 3, B: 4}, {A: 3, B: 5}, {A: 4, B: 5},
		{A: 2, B: 3},
	})
	m := NewTargetedCut(base, 1, 10, 3)
	add, remove := m.Deltas(2)
	if len(add) != 0 || len(remove) != 1 || (remove[0] != multihop.Edge{A: 2, B: 3}) {
		t.Fatalf("first strike: add=%v remove=%v, want the (2, 3) bridge cut", add, remove)
	}
	for r := uint64(3); r <= 4; r++ {
		if add, remove = m.Deltas(r); len(add) != 0 || len(remove) != 0 {
			t.Fatalf("round %d: outage should be quiet, got add=%v remove=%v", r, add, remove)
		}
	}
	add, remove = m.Deltas(5)
	if len(remove) != 0 || len(add) != 1 || (add[0] != multihop.Edge{A: 2, B: 3}) {
		t.Fatalf("heal round: add=%v remove=%v, want the (2, 3) bridge back", add, remove)
	}
}

// TestTargetedCutMinDegreeFallback checks that on a bridgeless graph the
// budget lands on the minimum-degree vertex's edges, lowest neighbor
// first.
func TestTargetedCutMinDegreeFallback(t *testing.T) {
	// A 4-cycle plus a chord at (0,2): vertices 1 and 3 have degree 2,
	// vertex 1 is the lowest-index minimum; no bridges anywhere.
	base := multihop.NewTopologyFromEdges(4, []multihop.Edge{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 0, B: 3}, {A: 0, B: 2},
	})
	m := NewTargetedCut(base, 2, 10, 5)
	add, remove := m.Deltas(2)
	if len(add) != 0 {
		t.Fatalf("first strike healed %v", add)
	}
	want := []multihop.Edge{{A: 0, B: 1}, {A: 1, B: 2}}
	if len(remove) != 2 || remove[0] != want[0] || remove[1] != want[1] {
		t.Fatalf("first strike removed %v, want %v (vertex 1's edges, lowest neighbor first)", remove, want)
	}
}

// TestMaskFlipDrivesGame runs a rendezvous game under mask churn end to
// end: the flickering masks delay but do not prevent the meeting.
func TestMaskFlipDrivesGame(t *testing.T) {
	res, err := rendezvous.Run(&rendezvous.Config{
		F: 4,
		Parties: []rendezvous.Party{
			{Strategy: rendezvous.Uniform{M: 4, P: 0.5}},
			{Strategy: rendezvous.Uniform{M: 4, P: 0.5}},
		},
		Masks:     NewMaskFlip(2, 4, 0.3, 5),
		MaxRounds: 5000,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMet == 0 {
		t.Fatalf("mask-churned game never met: %+v", res)
	}
}

// TestMaskFlipTogglesSlots pins MaskFlip at rate 1: every slot blocks in
// round 2 and unblocks in round 3, in (party, channel) order.
func TestMaskFlipTogglesSlots(t *testing.T) {
	m := NewMaskFlip(2, 3, 1, 9)
	block, unblock := m.MaskDeltas(2)
	if len(unblock) != 0 || len(block) != 6 {
		t.Fatalf("round 2: block=%d unblock=%d, want 6/0", len(block), len(unblock))
	}
	if block[0] != [2]int{0, 1} || block[5] != [2]int{1, 3} {
		t.Fatalf("round 2 block order %v", block)
	}
	block, unblock = m.MaskDeltas(3)
	if len(block) != 0 || len(unblock) != 6 {
		t.Fatalf("round 3: block=%d unblock=%d, want 0/6", len(block), len(unblock))
	}
}
