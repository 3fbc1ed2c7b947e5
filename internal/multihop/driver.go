package multihop

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wsync/internal/medium"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// totalNodeRounds accumulates active node-rounds over every completed
// multi-hop run in this process. The benchmark module (bench/) is its only
// reader: report entries take node_rounds from each experiment's own meter
// (harness.Experiment.RunMetered), which counts the same runs.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of active node-rounds
// executed by completed multi-hop runs. Deterministic for a deterministic
// workload — it never depends on scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// Edge is an undirected edge between two node indices. Churn models emit
// deltas as normalized (A < B) edges; the driver's delta applier accepts
// either orientation.
type Edge struct {
	A, B int
}

// ChurnModel drives per-round topology evolution — the dynamic-topology
// hook the churn workloads (internal/churn) plug into. Round 1 runs on
// Config.Topology unchanged; for every later round r the driver asks the
// model for the edge deltas that transform the round r−1 graph into the
// round r graph, applies them to its private topology clone, and hands
// the result to the round core before the round starts.
//
// The contract is strict so model bugs surface instead of skewing
// results: every added edge must be absent and every removed edge present
// at the time it is applied, or the driver panics. The returned slices
// are only read before the next Deltas call, so models may reuse them.
type ChurnModel interface {
	Deltas(r uint64) (add, remove []Edge)
}

// Config describes one multi-hop simulation. It reuses the single-hop
// model's agents, schedules, and adversaries; only medium resolution
// changes. History.Last follows the single-hop rule: any adversary that
// does not implement sim.HistoryBlind (adversary.NewReactive and
// adversary.NewStalker among them) reads each round's record through it,
// and a blind one sees it nil unless observers are attached.
type Config struct {
	// F is the number of frequencies; T the adversary's per-round budget.
	F int
	T int
	// Seed drives all randomness.
	Seed uint64
	// Topology is the communication graph (its N is the node count).
	Topology *Topology
	// NewAgent constructs node i's protocol instance. It is called on the
	// goroutine that called Run, in activation order.
	NewAgent func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent
	// Schedule determines activation rounds; nil means all in round 1.
	Schedule sim.Schedule
	// Adversary jams frequencies network-wide; nil means none.
	Adversary sim.Adversary
	// MaxRounds bounds the run (0 = sim default).
	MaxRounds uint64
	// RunToMax disables the all-synced stop rule.
	RunToMax bool
	// StopWhen, if non-nil, ends the run when it returns true (checked
	// after every round, in addition to the default rule). Closures
	// typically inspect retained agent references.
	StopWhen func(round uint64) bool
	// Observers are notified after each round with the same
	// sim.RoundRecord single-hop runs produce (Clear stays empty:
	// "clear broadcast" is a single-hop, shared-medium notion), so
	// observers like trace.Recorder work on churned multi-hop runs
	// unchanged. Record storage is reused between rounds — the
	// sim.Observer contract. With no observers and a nil or
	// sim.HistoryBlind adversary the core skips all record building;
	// either way the round loop stays allocation-free.
	Observers []sim.Observer
	// NoBatch disables cohort batch-stepping (sim.BatchAgent), forcing
	// every agent through the per-node Step fallback; results are
	// bit-identical either way. Mirrors sim.Config.NoBatch.
	NoBatch bool
	// Churn, if non-nil, evolves the topology between rounds. The driver
	// clones Config.Topology (the caller's graph is never mutated) and
	// applies the model's per-round deltas to the clone in place —
	// O(delta) per round and allocation-free at steady state — before
	// the round core resolves the round on it.
	Churn ChurnModel
}

// Result reports a multi-hop run.
type Result struct {
	Rounds uint64
	// NodeRounds counts active node-rounds (Σ over rounds of awake
	// nodes) — the throughput denominator of BenchmarkMultihopThroughput.
	NodeRounds   uint64
	AllSynced    bool
	SyncRound    []uint64 // global round of first non-⊥ output per node
	Leaders      int
	Deliveries   uint64
	Collisions   uint64 // per (receiver, round): >= 2 transmitting neighbors on its frequency
	HitMaxRounds bool
	// ChurnRounds counts the rounds whose topology differed from the
	// previous round's; ChurnEdges totals the edge inserts and removes
	// applied. Both are zero without Config.Churn.
	ChurnRounds uint64
	ChurnEdges  uint64
}

// validate checks what the round core cannot: the topology it runs on.
// sim.RunGraph validates the rest of the translated config.
func (c *Config) validate() error {
	if c.Topology == nil || c.Topology.N() < 1 {
		return errors.New("multihop: topology required")
	}
	return nil
}

// Run executes the simulation. Semantics per round: every active node
// picks (frequency, transmit/listen); a listener u receives iff exactly
// one neighbor of u transmitted on u's frequency and the adversary did not
// jam it.
//
// Run translates c into a sim.Config, runs sim's round core on the
// topology (churned through graphAt when c.Churn is set), and projects the
// core's result onto Result.
func Run(c *Config) (*Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	cfg := &sim.Config{
		F:              c.F,
		T:              c.T,
		Seed:           c.Seed,
		NewAgent:       c.NewAgent,
		Schedule:       c.Schedule,
		Adversary:      c.Adversary,
		MaxRounds:      c.MaxRounds,
		Observers:      c.Observers,
		RunToMaxRounds: c.RunToMax,
		NoBatch:        c.NoBatch,
	}
	if cfg.Schedule == nil {
		cfg.Schedule = sim.Simultaneous{Count: c.Topology.N()}
	}
	if stop := c.StopWhen; stop != nil {
		cfg.StopWhen = func(h *sim.History) bool { return stop(h.Completed) }
	}
	ch := &churner{cfg: c, topo: c.Topology}
	var graphAt func(uint64) medium.Graph
	if c.Churn != nil {
		// Delta mutations must never reach the caller's topology, which
		// experiments share across trials.
		ch.topo = c.Topology.Clone()
		graphAt = ch.graphAt
	}
	s, err := sim.RunGraph(cfg, ch.topo, graphAt)
	if err != nil {
		return nil, err
	}
	maxRounds := c.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	res := &Result{
		Rounds:       s.Stats.Rounds,
		NodeRounds:   s.Stats.NodeRounds,
		AllSynced:    s.AllSynced,
		SyncRound:    s.SyncRound,
		Leaders:      s.Leaders,
		Deliveries:   s.Stats.Deliveries,
		Collisions:   s.Stats.Collisions,
		HitMaxRounds: s.Stats.Rounds == maxRounds && !s.AllSynced,
		ChurnRounds:  ch.rounds,
		ChurnEdges:   ch.edgeOps,
	}
	totalNodeRounds.Add(res.NodeRounds)
	return res, nil
}

// churner owns a run's private topology clone and applies the churn
// model's deltas to it.
type churner struct {
	cfg     *Config
	topo    *Topology
	rounds  uint64
	edgeOps uint64
}

// graphAt advances the topology to round r and returns it: it pulls the
// model's edge deltas and applies them in place. Round 1 is the
// configured topology; churn starts at round 2.
func (ch *churner) graphAt(r uint64) medium.Graph {
	if r < 2 {
		return ch.topo
	}
	add, remove := ch.cfg.Churn.Deltas(r)
	if len(add) == 0 && len(remove) == 0 {
		return ch.topo
	}
	for _, ed := range remove {
		if !ch.topo.DeleteEdge(ed.A, ed.B) {
			panic(fmt.Sprintf("multihop: churn removed absent edge (%d, %d) in round %d", ed.A, ed.B, r))
		}
	}
	for _, ed := range add {
		if !ch.topo.InsertEdge(ed.A, ed.B) {
			panic(fmt.Sprintf("multihop: churn added present edge (%d, %d) in round %d", ed.A, ed.B, r))
		}
	}
	ch.edgeOps += uint64(len(add) + len(remove))
	ch.rounds++
	return ch.topo
}
