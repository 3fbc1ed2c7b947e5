package rendezvous

import (
	"fmt"
	"slices"
	"testing"
)

// asymmetry returns the first edge of g listed at only one end, or nil.
// The medium resolver pushes each transmission from the transmitter's
// neighbor list, which matches the model's listener-side reception rule
// only on symmetric graphs.
func asymmetry(g *gameGraph) error {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if !slices.Contains(g.Neighbors(w), u) {
				return fmt.Errorf("%d lists %d as a neighbor, but %d does not list %d", u, w, w, u)
			}
		}
	}
	return nil
}

// TestGameGraphSymmetric checks the game graph with static masks, global
// jam nodes and dynamic mask slots, before and after every step of a
// block/unblock script applied the way Run applies it.
func TestGameGraphSymmetric(t *testing.T) {
	const f, k = 4, 3
	parties := make([]Party, k)
	for p := range parties {
		parties[p] = Party{Strategy: Uniform{M: f, P: 0.5}}
	}
	parties[0].Mask = []int{1, 3}
	parties[2].Mask = []int{4}
	g := newGameGraph(&Config{F: f, Parties: parties, Jammer: NewPrefix(f, 1), Masks: &scriptedMasks{}})
	if err := asymmetry(g); err != nil {
		t.Fatalf("initial graph: %v", err)
	}
	dynBlocked := make([]bool, k*f)
	steps := []struct{ block, unblock [][2]int }{
		{block: [][2]int{{0, 1}, {1, 2}, {2, 4}}},
		{block: [][2]int{{1, 1}}, unblock: [][2]int{{0, 1}}},
		{block: [][2]int{{0, 1}, {0, 4}, {2, 3}}, unblock: [][2]int{{1, 2}}},
		{unblock: [][2]int{{0, 1}, {0, 4}, {1, 1}, {2, 3}, {2, 4}}},
	}
	for i, st := range steps {
		if err := applyMaskDeltas(g.adj, dynBlocked, st.block, st.unblock, k, f, g.dynBase, uint64(i+2)); err != nil {
			t.Fatal(err)
		}
		if err := asymmetry(g); err != nil {
			t.Fatalf("after step %d: %v", i, err)
		}
	}
}
