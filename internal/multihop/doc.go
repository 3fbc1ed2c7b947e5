// Package multihop extends the disrupted radio network model to multi-hop
// topologies, exploring the paper's closing open question ("how our
// results can be adapted to multiple hops").
//
// The medium generalizes Section 2 per receiver: a node u listening on
// frequency f receives a message iff exactly one of u's NEIGHBORS
// transmits on f and f is not disrupted. Non-neighbors neither deliver nor
// interfere; two transmitting neighbors collide at u even if they cannot
// hear each other (the hidden-terminal effect). The adversary jams up to t
// frequencies per round network-wide.
//
// The package has no round loop of its own. Run is a thin driver over
// internal/sim's round core (sim.RunGraph): it validates and translates
// Config into a sim.Config, applies churn deltas to a private clone of the
// topology from the core's per-round graph hook, and projects the core's
// result onto Result. A round costs O(active) plus what its transmitters
// touch: one pass over the awake nodes builds per-frequency transmitter
// buckets, and each transmitter on a frequency somebody listens on pushes
// its transmission to its listening neighbors. The complete graph
// (Clique) is exactly the single-hop model, which TestCliqueMatchesSingleHop
// and TestMultihopCliqueMatchesSimIndexed pin against sim.Run.
// TestMultihopMediumDifferential checks every round of randomized runs
// against the per-receiver brute-force rule in internal/simtest, and
// internal/churn's TestChurnDeltaMatchesRebuild checks the in-place churn
// deltas against a run that rebuilds each churned round's graph.
//
// Topologies cover lines, grids, cliques, and random geometric graphs
// (RandomGeometric, with RandomGeometricConnected retrying samples until
// connected); Diameter reports the hop-count diameter by BFS, the
// x-axis of the X7 convergence sweep, which climbs geometric graphs to
// N=4096 under the -full tier.
//
// On top of the drivers, RelayNode extends the Trapdoor Protocol across
// hops: nodes compete locally exactly as in the single-hop protocol, and
// every node that adopts a numbering becomes a relay that re-announces it.
// Conflicting schemes from independent regional elections are merged by
// adopting the scheme with the larger identifier, so the whole connected
// component converges to one numbering; time grows with network diameter
// (measured in experiment X7). Scheme switches can step a node's round
// number — genuine multi-hop synchronization with the paper's full
// guarantees remains the open problem; see the package tests for what is
// and is not promised.
package multihop
