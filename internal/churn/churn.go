package churn

import (
	"sort"

	"wsync/internal/multihop"
)

// Model is a churn workload: a round-1 topology plus the per-round edge
// deltas that evolve it (the multihop.ChurnModel contract). Use both
// halves of the same instance together:
//
//	m := churn.NewFlip(multihop.Grid(8, 8), 0.05, seed)
//	cfg := multihop.Config{Topology: m.Topology(), Churn: m, ...}
//
// A model instance drives exactly one run; construct a fresh instance per
// trial from the trial's seed.
type Model interface {
	multihop.ChurnModel
	// Topology returns the model's round-1 graph. The engine clones it,
	// so the model's own copy (where it keeps one) stays authoritative
	// for computing later deltas.
	Topology() *multihop.Topology
}

// sortEdges orders normalized edges lexicographically — the deterministic
// emission order models use when deltas are collected out of order.
func sortEdges(edges []multihop.Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
}
