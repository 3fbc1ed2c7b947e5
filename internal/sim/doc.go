// Package sim implements the disrupted radio network model of Section 2 of
// the paper as a discrete-event, round-synchronous simulator.
//
// The model: time divides into rounds. In each round every active node
// selects one of F frequencies and either transmits or listens. An
// interference adversary disrupts up to t < F frequencies per round,
// choosing based only on the protocol and the execution through the
// previous round. A listener on frequency f receives a message iff exactly
// one node transmitted on f and f is not disrupted; there is no collision
// detection, and transmitters learn nothing about the outcome of their
// transmission. Nodes are activated at schedule-determined rounds and run
// local round counters starting at activation.
//
// The package holds the one round core every Section 2 engine runs on, in
// two forms over the same Config: Run executes nodes sequentially in one
// goroutine; RunConcurrent gives every node agent its own goroutine (or
// Config.Workers of them) synchronized by round barriers. Both are
// deterministic given the same Config and produce identical Results,
// which a test verifies; the concurrent form exists because node agents
// map naturally onto goroutines and it parallelizes expensive per-node
// work.
//
// The core is parameterized by topology. Run and RunConcurrent resolve on
// the complete graph (a nil medium.Graph), the single-hop model above.
// RunGraph runs the same loop, serial or concurrent, on an explicit
// communication graph, where a listener hears only its neighbors, with
// an optional per-round graph hook for dynamic topologies; it is the
// entry point of the multi-hop drivers in internal/multihop. Work only
// the single-hop model needs (per-frequency classification, Clear and
// FirstClear, History.Last) runs only on the complete graph, and on a
// graph round records are built only when observers are present.
//
// Orthogonally to the engine choice, Config.Medium selects how the
// medium is resolved each round. The default frequency-indexed path —
// activation buckets, the sorted awake list, and per-frequency indexing
// from internal/medium — buckets broadcasters and listeners by frequency
// using only the awake nodes, so a round costs O(active) independent of
// F and N: the property that makes the -full sweep grids (N up to 16384,
// F up to 128) tractable. The legacy full-scan resolvers (MediumScan) for
// the complete graph and for explicit graphs survive as
// differential-testing oracles; TestMediumDifferential and multihop's
// TestMultihopMediumDifferential prove the two paths bit-identical in
// every observable over randomized schedules and topologies.
package sim
