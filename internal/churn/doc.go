// Package churn models dynamic communication topologies: devices that
// move, links that flicker, networks that partition and heal, and
// adversaries that cut the weakest links. The paper's bounds assume a
// fixed graph, but its target deployments — unlicensed-band devices that
// join, fail, and relocate — do not; this package is the workload layer
// that measures how the protocols behave when the graph itself is the
// adversary (experiment family X9).
//
// Every model implements Model: it owns a round-1 topology (Topology) and
// emits per-round edge deltas (Deltas, the multihop.ChurnModel contract).
// The multihop engine applies those deltas to its private topology clone
// in place — O(delta) sorted-adjacency patches via Topology.InsertEdge
// and DeleteEdge, allocation-free at steady state — and swaps the result
// into the medium resolver with SetGraph. TestChurnDeltaMatchesRebuild
// replays each run on the round core with a test graph hook that rebuilds
// every churned round's graph from scratch, checks that run against the
// brute-force reception rule (internal/simtest) in every round, and pins
// the two byte-identical across randomized mobility traces: the family's
// headline correctness invariant.
//
// The gallery:
//
//   - Waypoint: random-waypoint motion over a geometric graph. Nodes walk
//     toward uniformly drawn waypoints at a fixed speed; links exist
//     below the connection radius. A spatial grid plus a movers-per-round
//     budget keeps each step O(movers · local density), which is what
//     holds N=4096 mobile sweeps inside the -full tier's wall-clock
//     budget.
//   - Flip: i.i.d. per-round link flips — every edge of the base graph
//     independently toggles presence at a configurable rate. Degree never
//     exceeds the base graph's, so churned rounds stay on the engines'
//     zero-alloc path (TestSteadyStateAllocs covers a flipped round).
//   - Partition: a deterministic partition-and-heal schedule — the edges
//     crossing the index bipartition vanish for the last Down rounds of
//     every Period-round cycle, then heal at once.
//   - TargetedCut: adversarially targeted link cuts aimed at the current
//     minimum cut — bridges (the size-1 cuts) first, then the edges of
//     the minimum-degree vertex (whose degree upper-bounds the global
//     min-cut); cut links heal after a fixed outage.
//   - Compose: layered union of models. An edge is up iff any layer holds
//     it, so independent hazards (mobility plus a saboteur, flips plus
//     partitions) stack without coordinating.
//
// MaskFlip is the rendezvous-side sibling: it churns the parties'
// per-channel masks through the rendezvous driver's MaskModel hook, which
// reaches receptions through the round core's per-listener disruption.
//
// All models are deterministic in their seed and construction arguments,
// and a model instance drives exactly one run — trials construct fresh
// instances from per-trial seeds, preserving the harness's
// parallelism-independence guarantee.
package churn
