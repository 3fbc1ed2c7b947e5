package medium

import (
	"testing"
)

// testGraph is a minimal Graph over explicit ascending adjacency lists.
type testGraph struct {
	adj [][]int
}

func (g *testGraph) N() int                { return len(g.adj) }
func (g *testGraph) Neighbors(i int) []int { return g.adj[i] }

func TestActivationWakeInOrder(t *testing.T) {
	a := NewActivation([]uint64{1, 1, 3, 3, 5})
	if a.Max() != 5 {
		t.Fatalf("Max = %d, want 5", a.Max())
	}
	if got := a.Wake(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("round 1 bucket = %v", got)
	}
	if got := a.Wake(2); got != nil {
		t.Fatalf("round 2 bucket = %v, want nil", got)
	}
	a.Wake(3)
	a.Wake(5)
	want := []int{0, 1, 2, 3, 4}
	if got := a.Active(); len(got) != len(want) {
		t.Fatalf("active = %v", got)
	}
	for i, v := range want {
		if a.Active()[i] != v {
			t.Fatalf("active = %v, want %v", a.Active(), want)
		}
	}
}

// TestActivationWakeOutOfOrder exercises the merge path: a high index
// wakes before a low one, and the active list must stay ascending.
func TestActivationWakeOutOfOrder(t *testing.T) {
	a := NewActivation([]uint64{3, 1, 2})
	a.Wake(1) // node 1
	a.Wake(2) // node 2
	a.Wake(3) // node 0 — must merge in front
	want := []int{0, 1, 2}
	got := a.Active()
	if len(got) != len(want) {
		t.Fatalf("active = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active = %v, want ascending %v", got, want)
		}
	}
	// Rounds survive for local-round arithmetic.
	if a.Round(0) != 3 || a.Round(2) != 2 {
		t.Fatal("Round() lost the schedule")
	}
}

// TestActivationEdgeCases covers the wake-bookkeeping paths that had no
// direct coverage: duplicate wake rounds, everyone awake at round zero, a
// single node, and Wake probes past Max.
func TestActivationEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		rounds  []uint64
		wake    []uint64 // Wake calls, in order
		buckets []int    // expected bucket size per Wake call
		active  []int
		max     uint64
	}{
		{
			name:    "duplicate wake rounds",
			rounds:  []uint64{2, 2, 2},
			wake:    []uint64{1, 2},
			buckets: []int{0, 3}, // one shared bucket wakes all three
			active:  []int{0, 1, 2},
			max:     2,
		},
		{
			name:    "all awake at zero",
			rounds:  []uint64{0, 0, 0, 0},
			wake:    []uint64{0},
			buckets: []int{4},
			active:  []int{0, 1, 2, 3},
			max:     0,
		},
		{
			name:    "single node",
			rounds:  []uint64{7},
			wake:    []uint64{6, 7},
			buckets: []int{0, 1},
			active:  []int{0},
			max:     7,
		},
		{
			name:    "wake past max",
			rounds:  []uint64{1, 3},
			wake:    []uint64{1, 3, 4, 1 << 40},
			buckets: []int{1, 1, 0, 0},
			active:  []int{0, 1},
			max:     3,
		},
		{
			name:    "no wake calls",
			rounds:  []uint64{5, 6},
			wake:    nil,
			buckets: nil,
			active:  nil,
			max:     6,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewActivation(c.rounds)
			if a.Max() != c.max {
				t.Fatalf("Max = %d, want %d", a.Max(), c.max)
			}
			for i, r := range c.wake {
				if got := len(a.Wake(r)); got != c.buckets[i] {
					t.Fatalf("Wake(%d) bucket size = %d, want %d", r, got, c.buckets[i])
				}
			}
			got := a.Active()
			if len(got) != len(c.active) {
				t.Fatalf("active = %v, want %v", got, c.active)
			}
			for i := range c.active {
				if got[i] != c.active[i] {
					t.Fatalf("active = %v, want %v", got, c.active)
				}
			}
			for i, r := range c.rounds {
				if a.Round(i) != r {
					t.Fatalf("Round(%d) = %d, want %d", i, a.Round(i), r)
				}
			}
		})
	}
}

// TestResolverCompleteGraph checks the single-hop (nil graph) path:
// Receive answers from the global per-frequency counters.
func TestResolverCompleteGraph(t *testing.T) {
	r := NewResolver(4, 6, nil)
	r.Transmit(0, 2)
	r.Transmit(1, 3)
	r.Transmit(2, 3)
	r.Listen(3, 2)
	r.Listen(4, 3)
	r.Listen(5, 1)
	touched := r.TouchedAscending()
	if len(touched) != 2 || touched[0] != 2 || touched[1] != 3 {
		t.Fatalf("touched = %v", touched)
	}
	if r.Count(2) != 1 || r.From(2) != 0 {
		t.Fatalf("freq 2: count=%d from=%d", r.Count(2), r.From(2))
	}
	if from, count := r.Receive(3, 2); count != 1 || from != 0 {
		t.Fatalf("Receive(3,2) = %d,%d", from, count)
	}
	if _, count := r.Receive(4, 3); count != 2 {
		t.Fatalf("Receive(4,3) count = %d, want saturated 2", count)
	}
	if _, count := r.Receive(5, 1); count != 0 {
		t.Fatalf("Receive(5,1) count = %d, want 0", count)
	}
	if l := r.Listeners(); len(l) != 3 || l[0] != 3 || l[1] != 4 || l[2] != 5 {
		t.Fatalf("listeners = %v", l)
	}
	r.Reset()
	if r.Count(2) != 0 || r.Count(3) != 0 || len(r.Listeners()) != 0 {
		t.Fatal("Reset did not clear the round")
	}
}

// TestResolverSilentAfterBusy pins that a frequency busy in one round and
// silent in the next reports no sender: after Reset, a listener there gets
// (-1, 0) from Receive, and From answers -1, on the complete graph and on a
// graph alike.
func TestResolverSilentAfterBusy(t *testing.T) {
	for _, g := range []Graph{nil, &testGraph{adj: [][]int{{1, 2}, {0, 2}, {0, 1}}}} {
		r := NewResolver(2, 3, g)
		r.Transmit(0, 1)
		r.Listen(1, 1)
		r.Listen(2, 2)
		if from, count := r.Receive(1, 1); from != 0 || count != 1 {
			t.Fatalf("graph=%v: busy round Receive = %d,%d, want 0,1", g != nil, from, count)
		}
		r.Reset()
		r.Transmit(0, 2)
		r.Listen(1, 1)
		if from, count := r.Receive(1, 1); from != -1 || count != 0 {
			t.Fatalf("graph=%v: silent round Receive = %d,%d, want -1,0", g != nil, from, count)
		}
		if from := r.From(1); from != -1 {
			t.Fatalf("graph=%v: silent round From = %d, want -1", g != nil, from)
		}
	}
}

// TestResolverGraphPush exercises the transmitter-side push on a star
// graph: leaf transmissions reach the high-degree hub, a hub
// transmission would reach every leaf, and a detached edge reuses the
// frequency without interference.
func TestResolverGraphPush(t *testing.T) {
	// Star: 0 is the hub of 1..6; plus the detached edge 7—8.
	g := &testGraph{adj: [][]int{
		{1, 2, 3, 4, 5, 6}, {0}, {0}, {0}, {0}, {0}, {0}, {8}, {7},
	}}
	r := NewResolver(3, g.N(), g)
	r.Listen(0, 1)
	r.Listen(1, 1)
	r.Transmit(2, 1) // leaf 2 on freq 1
	r.Listen(7, 1)
	r.Transmit(8, 1) // detached node 8 on freq 1

	// Hub: of the transmitters {2, 8}, only leaf 2 pushes to it.
	if from, count := r.Receive(0, 1); count != 1 || from != 2 {
		t.Fatalf("hub Receive = %d,%d, want 2,1", from, count)
	}
	// Leaf 1: its only neighbor 0 listens.
	if _, count := r.Receive(1, 1); count != 0 {
		t.Fatalf("leaf Receive count = %d, want 0", count)
	}
	// Node 7 neighbors only 8, which transmits on 1.
	if from, count := r.Receive(7, 1); count != 1 || from != 8 {
		t.Fatalf("detached Receive = %d,%d, want 8,1", from, count)
	}

	// A fresh round with a second leaf transmitter makes the hub collide;
	// node 7 still hears only its own neighbor.
	r.Reset()
	r.Listen(0, 1)
	r.Listen(1, 1)
	r.Transmit(2, 1)
	r.Transmit(5, 1)
	r.Listen(7, 1)
	r.Transmit(8, 1)
	if _, count := r.Receive(0, 1); count != 2 {
		t.Fatalf("hub collision count = %d, want 2", count)
	}
	if from, count := r.Receive(7, 1); count != 1 || from != 8 {
		t.Fatalf("spatial reuse broken: %d,%d", from, count)
	}

	// Reset clears the listeners' tallies too.
	r.Reset()
	r.Listen(0, 1)
	if _, count := r.Receive(0, 1); count != 0 {
		t.Fatalf("after Reset, hub hears count = %d, want 0", count)
	}
}

// TestResolverSetGraph covers the dynamic-topology hook: swapping the
// Graph between (or even mid-) rounds invalidates per-node state and
// behaves exactly like a resolver freshly built on the new topology.
func TestResolverSetGraph(t *testing.T) {
	line := &testGraph{adj: [][]int{{1}, {0, 2}, {1}}}           // 0—1—2
	triangle := &testGraph{adj: [][]int{{1, 2}, {0, 2}, {0, 1}}} // complete on 3

	// round registers the same activity on any resolver: 0 and 2
	// transmit on frequency 1, node 1 listens.
	round := func(r *Resolver) {
		r.Transmit(0, 1)
		r.Listen(1, 1)
		r.Transmit(2, 1)
	}

	t.Run("graph to graph matches fresh resolver", func(t *testing.T) {
		r := NewResolver(2, 3, line)
		round(r)
		// On the line, listener 1 neighbors both transmitters: collision.
		if _, count := r.Receive(1, 1); count != 2 {
			t.Fatalf("line Receive count = %d, want 2", count)
		}
		r.SetGraph(&testGraph{adj: [][]int{{1}, {0}, {}}}) // 0—1, 2 isolated
		round(r)
		fresh := NewResolver(2, 3, &testGraph{adj: [][]int{{1}, {0}, {}}})
		round(fresh)
		gf, gc := r.Receive(1, 1)
		wf, wc := fresh.Receive(1, 1)
		if gf != wf || gc != wc {
			t.Fatalf("swapped Receive = %d,%d; fresh = %d,%d", gf, gc, wf, wc)
		}
		// Isolated node 2's transmission is now invisible: clean reception
		// from 0 only.
		if gc != 1 || gf != 0 {
			t.Fatalf("Receive = %d,%d, want 0,1", gf, gc)
		}
	})

	t.Run("mid-round swap invalidates transmit state", func(t *testing.T) {
		r := NewResolver(2, 3, line)
		round(r) // never resolved or Reset
		r.SetGraph(triangle)
		if got := len(r.Listeners()); got != 0 {
			t.Fatalf("listeners survived the swap: %d", got)
		}
		if r.Count(1) != 0 {
			t.Fatalf("Count(1) = %d after swap, want 0", r.Count(1))
		}
		r.Listen(1, 1)
		if _, count := r.Receive(1, 1); count != 0 {
			t.Fatalf("stale transmission heard after swap: count = %d", count)
		}
	})

	t.Run("nil to graph and back", func(t *testing.T) {
		r := NewResolver(2, 3, nil)
		round(r)
		// Complete graph: global count, collision.
		if _, count := r.Receive(1, 1); count != 2 {
			t.Fatalf("complete-graph count = %d, want 2", count)
		}
		r.SetGraph(&testGraph{adj: [][]int{{1}, {0}, {}}})
		round(r)
		if from, count := r.Receive(1, 1); count != 1 || from != 0 {
			t.Fatalf("after nil→graph swap Receive = %d,%d, want 0,1", from, count)
		}
		r.SetGraph(nil)
		round(r)
		if _, count := r.Receive(1, 1); count != 2 {
			t.Fatalf("after graph→nil swap count = %d, want 2", count)
		}
	})

	t.Run("new graph may grow the node count", func(t *testing.T) {
		r := NewResolver(2, 2, &testGraph{adj: [][]int{{1}, {0}}})
		r.Transmit(0, 1)
		r.Reset()
		big := &testGraph{adj: [][]int{{3}, {2}, {1}, {0}}} // 0—3, 1—2
		r.SetGraph(big)
		r.Transmit(3, 1)
		r.Listen(0, 1)
		r.Listen(1, 1)
		if from, count := r.Receive(0, 1); count != 1 || from != 3 {
			t.Fatalf("grown Receive(0) = %d,%d, want 3,1", from, count)
		}
		if _, count := r.Receive(1, 1); count != 0 {
			t.Fatalf("grown Receive(1) count = %d, want 0", count)
		}
	})
}

// TestSetGraphShrink pins the node-universe rule: the universe only ever
// grows. Swapping in a graph with fewer nodes than the resolver currently
// covers must panic — nodes at or above the new count may already be
// registered, and resolving them would index past the new adjacency (the
// latent out-of-range read this rule exists to forbid).
func TestSetGraphShrink(t *testing.T) {
	mk := func(n int) Graph {
		adj := make([][]int, n)
		for i := 1; i < n; i++ { // star on node 0, any shape works
			adj[0] = append(adj[0], i)
			adj[i] = []int{0}
		}
		return &testGraph{adj: adj}
	}
	cases := []struct {
		name      string
		start     Graph // nil = complete-graph mode over startN nodes
		startN    int
		swaps     []Graph // applied in order; the last one is under test
		wantPanic bool
	}{
		{"same size is fine", mk(3), 3, []Graph{mk(3)}, false},
		{"growing is fine", mk(2), 2, []Graph{mk(4)}, false},
		{"swap to nil is fine", mk(3), 3, []Graph{nil}, false},
		{"nil to equal graph is fine", nil, 3, []Graph{mk(3)}, false},
		{"shrink panics", mk(3), 3, []Graph{mk(2)}, true},
		{"shrink below the nil-mode universe panics", nil, 4, []Graph{mk(3)}, true},
		{"shrink after growth panics", mk(2), 2, []Graph{mk(4), mk(3)}, true},
		{"nil does not reset the grown universe", mk(2), 2, []Graph{mk(4), nil, mk(2)}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := NewResolver(2, tc.startN, tc.start)
			for _, g := range tc.swaps[:len(tc.swaps)-1] {
				r.SetGraph(g)
			}
			last := tc.swaps[len(tc.swaps)-1]
			defer func() {
				if got := recover() != nil; got != tc.wantPanic {
					t.Fatalf("panic = %v, want %v", got, tc.wantPanic)
				}
			}()
			r.SetGraph(last)
		})
	}
}
