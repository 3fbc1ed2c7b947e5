package sim

import (
	"errors"
	"fmt"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// NodeID identifies a node; IDs are dense indices 0..N-1.
type NodeID int

// Action is a node's choice for one round: a frequency in [1..F] and
// whether to transmit (with the given message) or listen.
type Action struct {
	Freq     int
	Transmit bool
	Msg      msg.Message
}

// Output is a node's per-round output in N⊥ (Section 3, Validity): either
// ⊥ (Synced == false) or a round number.
type Output struct {
	Value  uint64
	Synced bool
}

// Agent is one node's protocol instance. The engine calls Step exactly once
// per round while the node is active, then Deliver at most once (only if
// the node listened and a message arrived). It reads Output right after
// Step and, for a node that received a message, again after Deliver; the
// last value read in a round is the node's output for that round.
//
// Agents are driven by the goroutine that called Run or RunGraph and need
// no internal locking.
type Agent interface {
	// Step returns the node's action for its local round (1-based; local
	// round 1 is the activation round).
	Step(localRound uint64) Action
	// Deliver hands the node a received message. The message is a value
	// copy; retaining slices requires Clone.
	Deliver(m msg.Message)
	// Output returns the node's current output. The engine may call it
	// twice in one round (after Step and after Deliver), so it must be a
	// pure read of the node's state.
	Output() Output
}

// BroadcastProber is optionally implemented by agents that can report the
// probability with which their next Step would transmit. The broadcast
// weight monitor (Lemma 9 experiments) uses it.
type BroadcastProber interface {
	BroadcastProb() float64
}

// LeaderReporter is optionally implemented by agents that can report
// whether they became a leader; experiment harnesses use it to verify
// leader uniqueness.
type LeaderReporter interface {
	IsLeader() bool
}

// Schedule determines when each node is activated. Implementations must be
// deterministic: the engine queries them once at startup.
type Schedule interface {
	// N returns the number of nodes that will ever be activated.
	N() int
	// ActivationRound returns the 1-based global round in which node i is
	// activated.
	ActivationRound(i int) uint64
}

// Adversary chooses the disrupted frequencies each round. Disrupt is called
// once per round, before node actions are resolved, and may consult the
// execution history through the previous round. The returned set must
// contain at most the configured t frequencies; the engine validates this.
//
// The returned set is owned by the adversary and read by the engine during
// the round only.
type Adversary interface {
	Disrupt(round uint64, hist *History) *freqset.Set
}

// HistoryBlind is an Adversary whose choices never read History.Last.
// The core builds round records, and sets History.Last, only when
// observers are attached or the adversary is non-nil and not HistoryBlind;
// a run with a blind adversary and no observers skips record building
// entirely. The marker is an opt-out: an adversary that does not declare
// it — including a wrapper that hides an inner adversary's marker —
// always sees History.Last, so a missing marker costs speed but never
// changes a result.
type HistoryBlind interface {
	Adversary
	IgnoresHistory()
}

// ListenerDisrupter is an Adversary that also disrupts receptions one
// listener at a time. On a graph (RunGraph), listener i's reception on
// frequency f, clean by the neighborhood rule and the global disrupted
// set, is lost when DisruptedAt(i, f) reports true. The core calls it in
// the round's resolution, after Disrupt, and only for such receptions.
// The complete graph (Run) has no per-listener path and rejects it.
type ListenerDisrupter interface {
	Adversary
	DisruptedAt(i NodeID, f int) bool
}

// RoundRecord describes one completed round. Records handed to observers
// and adversaries are only valid during the call; the engine reuses their
// backing storage. The engine fills a record only when something reads it
// (see HistoryBlind).
type RoundRecord struct {
	Round     uint64
	Disrupted *freqset.Set
	// Actions lists the choices of all nodes active this round.
	Actions []ActionRecord
	// Deliveries lists successful receptions.
	Deliveries []Delivery
	// Clear lists frequencies on which exactly one node transmitted and
	// which were not disrupted — the "clear broadcast" event whose first
	// occurrence the Theorem 1 lower bound reasons about.
	Clear []int
	// Outputs holds the post-round output of every node (indexed by
	// NodeID); inactive nodes report ⊥.
	Outputs []Output
	// Weights holds each node's pre-Step broadcast probability when
	// Config.ProbeWeights is set and the agent implements BroadcastProber;
	// nil otherwise. The paper's broadcast weight W(r) is the sum over
	// active nodes (Definition 7).
	Weights []float64
}

// ActionRecord is one node's recorded action.
type ActionRecord struct {
	Node     NodeID
	Freq     int
	Transmit bool
}

// Delivery is one successful message reception.
type Delivery struct {
	From NodeID
	To   NodeID
	Freq int
}

// History is the execution record available to adaptive adversaries and to
// stop conditions. It holds the last completed round's record plus
// cumulative per-node information, which matches what the adversaries in
// this repository need without retaining the full execution.
type History struct {
	// F is the number of frequencies.
	F int
	// Completed is the number of completed rounds.
	Completed uint64
	// Last is the record of the most recently completed round; nil before
	// the first round completes, and nil throughout a run with no
	// observers whose adversary is nil or HistoryBlind.
	Last *RoundRecord
	// Activated[i] is node i's activation round (0 if not yet active).
	Activated []uint64
	// Received[i] reports whether node i has ever received a message.
	Received []bool
	// EverClear reports whether any clear broadcast has occurred.
	EverClear bool
	// FirstClear is the round of the first clear broadcast (0 if none).
	FirstClear uint64
}

// Observer is notified after every round. Observers run on the engine
// goroutine; the record is valid only during the call.
type Observer interface {
	ObserveRound(rec *RoundRecord)
}

// Stats aggregates medium-level counters over a run.
type Stats struct {
	Rounds          uint64 // rounds executed
	NodeRounds      uint64 // active node-rounds executed (Σ over rounds of awake nodes)
	Transmissions   uint64 // node-round transmissions
	Collisions      uint64 // (round, freq) pairs with >= 2 transmitters; on a graph (RunGraph), (receiver, round) pairs
	DisruptedLosses uint64 // single-transmitter (round, freq) pairs lost to disruption
	Deliveries      uint64 // successful receptions (listener count)
	ClearBroadcasts uint64 // (round, freq) pairs with a clear broadcast
}

// Result is the outcome of one simulation run.
type Result struct {
	Stats Stats
	// AllSynced reports whether every activated node committed an output.
	AllSynced bool
	// SyncRound[i] is the global round in which node i first produced a
	// non-⊥ output, or 0 if it never did.
	SyncRound []uint64
	// Activated[i] is node i's activation round.
	Activated []uint64
	// MaxSyncLocal is the maximum over nodes of (SyncRound - activation
	// round + 1): the paper's notion of a node's synchronization time. It
	// is 0 when no node synchronized and counts only synchronized nodes.
	MaxSyncLocal uint64
	// FirstClear is the global round of the first clear broadcast, 0 if
	// none occurred.
	FirstClear uint64
	// Leaders is the number of agents reporting IsLeader at the end.
	Leaders int
	// HitMaxRounds reports that the run stopped at the round limit.
	HitMaxRounds bool
}

// SyncLocal returns node i's synchronization time in local rounds, or 0 if
// it never synchronized.
func (r *Result) SyncLocal(i int) uint64 {
	if r.SyncRound[i] == 0 {
		return 0
	}
	return r.SyncRound[i] - r.Activated[i] + 1
}

// Config describes one simulation.
type Config struct {
	// F is the number of frequencies (>= 1).
	F int
	// T is the adversary's per-round disruption budget (0 <= T < F).
	T int
	// Seed seeds all randomness; identical configs with identical seeds
	// yield identical executions.
	Seed uint64
	// NewAgent constructs node i's protocol instance. The provided Rand is
	// the node's private stream. It is always called on the goroutine that
	// called Run or RunGraph, in activation order (by round, then by
	// ascending node ID).
	NewAgent func(id NodeID, activation uint64, r *rng.Rand) Agent
	// Schedule determines activation times.
	Schedule Schedule
	// Adversary picks disrupted frequencies; nil means no disruption.
	Adversary Adversary
	// MaxRounds bounds the run; 0 means DefaultMaxRounds.
	MaxRounds uint64
	// Observers are notified after each round.
	Observers []Observer
	// StopWhen, if non-nil, is evaluated after each round and stops the
	// run when it returns true. It is checked in addition to the default
	// all-synced stop rule.
	StopWhen func(h *History) bool
	// RunToMaxRounds disables the default stop rule (all nodes activated
	// and synchronized); use with StopWhen or MaxRounds for experiments
	// that measure events other than synchronization.
	RunToMaxRounds bool
	// ProbeWeights asks the engine to record each agent's BroadcastProb
	// before stepping it, exposing the paper's broadcast weight W(r) to
	// observers via RoundRecord.Weights.
	ProbeWeights bool
	// WireFidelity makes every delivered message round-trip through the
	// binary codec (msg.Encode/msg.Decode), guaranteeing that protocols
	// depend only on what actually fits in a radio slot. Encoding failures
	// panic: a protocol emitting unencodable messages is a bug.
	WireFidelity bool
	// NoBatch disables cohort batch-stepping (BatchAgent), forcing every
	// agent through the per-node Step fallback. Results are bit-identical
	// either way (TestBatchStepMatchesPerNode pins this); the flag exists
	// as the differential-testing oracle and for dispatch-cost benchmarks.
	NoBatch bool
}

// DefaultMaxRounds bounds runs whose Config leaves MaxRounds zero.
const DefaultMaxRounds = 1 << 22

// Validate checks the configuration, returning an error describing the
// first problem found.
func (c *Config) Validate() error {
	switch {
	case c.F < 1:
		return fmt.Errorf("sim: F = %d, need F >= 1", c.F)
	case c.T < 0 || c.T >= c.F:
		return fmt.Errorf("sim: T = %d, need 0 <= T < F = %d", c.T, c.F)
	case c.NewAgent == nil:
		return errors.New("sim: NewAgent is required")
	case c.Schedule == nil:
		return errors.New("sim: Schedule is required")
	case c.Schedule.N() < 1:
		return errors.New("sim: schedule activates no nodes")
	}
	for i := 0; i < c.Schedule.N(); i++ {
		if c.Schedule.ActivationRound(i) < 1 {
			return fmt.Errorf("sim: node %d has activation round %d, need >= 1",
				i, c.Schedule.ActivationRound(i))
		}
	}
	return nil
}
