package multihop

import (
	"fmt"
	"slices"
	"testing"
)

// asymmetry returns the first edge of g listed at only one end, or nil.
// The medium resolver pushes each transmission from the transmitter's
// neighbor list, which matches the model's listener-side reception rule
// only on symmetric graphs, so every topology a run resolves against
// must pass.
func asymmetry(g *Topology) error {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if !slices.Contains(g.Neighbors(w), u) {
				return fmt.Errorf("%d lists %d as a neighbor, but %d does not list %d", u, w, w, u)
			}
		}
	}
	return nil
}

// TestTopologiesSymmetric checks every constructor's adjacency.
func TestTopologiesSymmetric(t *testing.T) {
	topos := map[string]*Topology{
		"line":         Line(7),
		"line-1":       Line(1),
		"grid":         Grid(4, 3),
		"clique":       Clique(6),
		"rgg":          RandomGeometric(200, 0.12, 3),
		"rgg-sparse":   RandomGeometric(200, 0.02, 4),
		"rgg-relay":    RandomGeometric(1024, 0.06, 1),
		"rgg-connect":  RandomGeometricConnected(60, 0.3, 5),
		"from-edges":   NewTopologyFromEdges(5, []Edge{{A: 3, B: 1}, {A: 0, B: 4}, {A: 1, B: 3}}),
		"clone-of-rgg": RandomGeometric(100, 0.15, 6).Clone(),
	}
	for name, g := range topos {
		if err := asymmetry(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
