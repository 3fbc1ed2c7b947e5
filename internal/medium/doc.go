// Package medium is the shared frequency-indexed medium resolver under
// the round core in internal/sim: single-hop runs (the complete graph)
// and multi-hop runs (internal/multihop's drivers, on an explicit graph)
// resolve each round's radio activity through the same machinery,
// parameterized by topology. The rendezvous engine uses it too.
//
// The package has two pieces. Activation turns a schedule's per-node
// activation rounds into per-round wake buckets and a sorted active list,
// so per-round activation and iteration over awake nodes cost O(awake),
// not O(N). Resolver indexes one round of activity by frequency: a single
// pass over the awake nodes builds per-frequency transmitter buckets and
// the listener list, classification visits only the frequencies actually
// touched this round, and Reset re-zeroes only what the round dirtied —
// per-round cost is O(active · log active), independent of F and N.
//
// Topology enters through the Graph interface. A nil Graph is the
// complete graph — the single-hop model, where a listener's reception
// depends only on the global per-frequency transmitter count, so the
// resolver skips transmitter buckets and per-node transmit state
// entirely. With a Graph, Receive intersects a listener's frequency
// bucket with its neighborhood, choosing bucket-walk or neighbor-walk by
// comparing degree against bucket size: low-degree listeners probe their
// neighbors' transmit state, high-degree listeners binary-search the
// (smaller) transmitter bucket against their sorted neighbor list.
//
// Topology may also change while a resolver lives: SetGraph swaps the
// Graph between rounds — invalidating any per-node transmit state
// registered under the old one — which is the hook dynamic-topology
// experiments (nodes moving, edges churning per round) build on.
//
// The round core keeps legacy full-scan resolvers for the complete graph
// and for explicit graphs as differential oracles (sim.MediumScan, also
// reachable through multihop's Config.Medium knob); the indexed path must
// stay bit-identical to them in every observable, which
// TestMediumDifferential (internal/sim) and TestMultihopMediumDifferential
// (internal/multihop) assert over randomized topologies, schedules, and
// adversaries.
package medium
