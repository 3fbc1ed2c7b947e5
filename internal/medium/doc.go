// Package medium is the shared frequency-indexed medium resolver under
// the round core in internal/sim: single-hop runs (the complete graph)
// and multi-hop runs (internal/multihop's drivers, on an explicit graph)
// resolve each round's radio activity through the same machinery,
// parameterized by topology. Rendezvous games reach it through the core
// too, as a driver on the complete graph over their parties.
//
// The package has two pieces. Activation turns a schedule's per-node
// activation rounds into per-round wake buckets and a sorted active list,
// so per-round activation and iteration over awake nodes cost O(awake),
// not O(N). Resolver indexes one round of activity by frequency: a single
// pass over the awake nodes builds per-frequency transmitter buckets and
// the listener list, classification visits only the frequencies actually
// touched this round, and Reset re-zeroes only what the round dirtied —
// on the complete graph, per-round cost is O(active · log active),
// independent of F and N.
//
// Topology enters through the Graph interface. A nil Graph is the
// complete graph — the single-hop model, where a listener's reception
// depends only on the global per-frequency transmitter count, so the
// resolver skips transmitter buckets entirely. With a Graph, the round is
// resolved from the transmitter side: once per round, for every frequency
// somebody listens on, each transmitter walks its own neighbor list and
// tallies itself at the neighbors listening there, and Receive reads the
// listener's tally, so a round costs what its transmitters touch. The push
// counts the transmitters w with u ∈ N(w), while the model's rule counts
// w ∈ N(u), so a Graph must be symmetric.
//
// Topology may also change while a resolver lives: SetGraph swaps the
// Graph between rounds — invalidating any per-node state registered
// under the old one — which is the hook dynamic-topology
// experiments (nodes moving, edges churning per round) build on.
//
// This resolver is the round core's only medium path. Its reference is
// the brute-force reception rule in internal/simtest, which only tests
// import: TestMediumDifferential (internal/sim) and
// TestMultihopMediumDifferential (internal/multihop) check every round's
// deliveries, clear frequencies and counts against it over randomized
// topologies, schedules, and adversaries, and FuzzResolverReceive checks
// Receive against a per-listener scan.
package medium
