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
// The package holds the one round core every Section 2 engine runs on.
// It runs serially on the calling goroutine, and a Result is a pure
// function of its Config. Parallelism lives one level up, across
// independent trials (internal/pool), so a run needs no synchronization.
//
// The core is parameterized by topology. Run resolves on the complete
// graph (a nil medium.Graph), the single-hop model above. RunGraph runs
// the same loop on an explicit communication graph, where a listener hears
// only its neighbors, with an optional per-round graph hook for dynamic
// topologies. It is the entry point of the three drivers over the core:
// internal/multihop, and internal/rendezvous and internal/unslotted on
// the complete graph with explicit neighbor lists (Clique). Work only the
// single-hop model needs (per-frequency classification, Clear and
// FirstClear) runs only on the complete graph of Run.
//
// A round touches each awake node's state once, in the step pass: batch
// cohorts (BatchAgent) and the per-node fallback both store the node's
// action and its Output right after stepping it, and only nodes that
// receive a message have Output read again, after Deliver. Round records
// follow one rule on both topologies: the core builds them, and hands
// them to the adversary as History.Last, iff an observer is attached or
// the adversary is non-nil and not HistoryBlind. Every other run skips
// record building altogether.
//
// The medium has one resolve path. Activation buckets, the sorted awake
// list, and per-frequency indexing from internal/medium bucket
// broadcasters and listeners by frequency using only the awake nodes, so
// a round costs O(active) independent of F and N: the property that makes
// the -full sweep grids (N up to 16384, F up to 128) tractable. The
// brute-force reception rule lives in internal/simtest, which only tests
// import: its Oracle observer recomputes each round's deliveries and clear
// frequencies from the round record, and the run's Stats from those.
// TestMediumDifferential and multihop's TestMultihopMediumDifferential run
// it over randomized schedules, topologies and adversaries.
package sim
