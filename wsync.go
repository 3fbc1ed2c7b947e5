// Package wsync is a Go implementation of the wireless synchronization
// protocols of Dolev, Gilbert, Guerraoui, Kuhn and Newport, "The Wireless
// Synchronization Problem" (PODC 2009).
//
// The problem: n devices activated at arbitrary times on a single-hop radio
// network with F narrowband frequencies must agree on a global round
// numbering, while an interference adversary disrupts up to t < F
// frequencies per round. The library provides:
//
//   - the Trapdoor Protocol, which synchronizes every node within
//     O(F/(F−t)·log²N + Ft/(F−t)·logN) rounds with high probability;
//   - the Good Samaritan Protocol, an adaptive variant that finishes in
//     O(t'·log³N) rounds when all nodes start together and only t' < t
//     frequencies are actually disrupted, and O(F·log³N) rounds always;
//   - a deterministic, reproducible simulator of the disrupted radio
//     network model, with pluggable adversaries and activation schedules;
//   - baselines, lower-bound experiments, and a harness regenerating every
//     figure and theorem of the paper (see EXPERIMENTS.md).
//
// # Quick start
//
//	res, err := wsync.Run(wsync.Config{
//		Protocol: wsync.Trapdoor,
//		Nodes:    8,
//		N:        64,
//		F:        8,
//		T:        2,
//		Adversary: "fixed", // jam frequencies 1..t forever
//	})
//
// Run returns per-node synchronization rounds and the verdict of a checker
// that verifies the problem's five properties (validity, synch commit,
// correctness, agreement, liveness) over the whole execution.
//
// Applications that need behavior beyond synchronization (data exchange on
// synchronized hopping schedules, TDMA slotting, ...) supply their own
// agents via Config.NewAgent, typically wrapping a protocol node; see
// examples/ for three complete applications.
package wsync

import (
	"fmt"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/msg"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// Aliases re-export the engine-level types so applications outside this
// module can build custom agents and adversaries against the public API.
type (
	// Agent is one node's per-round protocol behavior.
	Agent = sim.Agent
	// Action is a node's choice for one round.
	Action = sim.Action
	// Output is a node's per-round output in N⊥.
	Output = sim.Output
	// Message is a radio transmission payload.
	Message = msg.Message
	// Timestamp is the (age, uid) pair protocol messages carry.
	Timestamp = msg.Timestamp
	// Rand is the deterministic per-node random stream.
	Rand = rng.Rand
	// Adversary chooses disrupted frequencies each round.
	Adversary = sim.Adversary
	// Schedule determines activation times.
	Schedule = sim.Schedule
	// Observer is notified after every simulated round.
	Observer = sim.Observer
	// SimConfig is the engine-level configuration for advanced users.
	SimConfig = sim.Config
	// SimResult is the engine-level result.
	SimResult = sim.Result
	// LeaderReporter is implemented by protocol agents that can report
	// whether they won the leader competition.
	LeaderReporter = sim.LeaderReporter
	// TrapdoorParams configures the Trapdoor Protocol.
	TrapdoorParams = trapdoor.Params
	// SamaritanParams configures the Good Samaritan Protocol.
	SamaritanParams = samaritan.Params
)

// Message kinds, re-exported for applications that exchange data after
// synchronizing.
const (
	KindContender = msg.KindContender
	KindSamaritan = msg.KindSamaritan
	KindLeader    = msg.KindLeader
	KindData      = msg.KindData
)

// Protocol selects a synchronization protocol by name.
type Protocol string

// Available protocols.
const (
	// Trapdoor is the paper's near-optimal protocol (Section 6).
	Trapdoor Protocol = "trapdoor"
	// GoodSamaritan is the paper's adaptive protocol (Section 7).
	GoodSamaritan Protocol = "samaritan"
	// BaselineWakeup is the no-competition comparison protocol.
	BaselineWakeup Protocol = "wakeup"
	// BaselineRoundRobin is the deterministic comparison protocol.
	BaselineRoundRobin Protocol = "roundrobin"
	// BaselineSingleFreq is the single-frequency comparison protocol.
	BaselineSingleFreq Protocol = "singlefreq"
)

// Config describes one synchronization run. Zero values get sensible
// defaults (see each field).
type Config struct {
	// Protocol selects the algorithm; default Trapdoor. Ignored when
	// NewAgent is set.
	Protocol Protocol
	// Nodes is the number of devices activated (default 2).
	Nodes int
	// N is the known upper bound on participants (default max(Nodes, 16)).
	// The protocols' error probability is ~1/N, so very small explicit N
	// values trade correctness for speed.
	N int
	// F is the number of frequencies (default 8); T the adversary budget
	// (default 0).
	F int
	T int

	// Adversary names the jammer: "none" (default), "fixed" (jams 1..t),
	// "random", "sweep", "bursty", "reactive", "stalker". Ignored when
	// CustomAdversary is set.
	Adversary string
	// JammedPrefix overrides the "fixed" adversary's prefix size (the
	// paper's t' < t good-case disruption) and must lie in [0, T]; zero
	// means T, so a run with nothing jammed names Adversary "none".
	JammedPrefix int

	// Activation is "simultaneous" (default), "staggered", or "random".
	// Ignored when CustomSchedule is set.
	Activation string
	// ActivationGap is the staggered gap (default 1); ActivationWindow the
	// random window (default 1000).
	ActivationGap    uint64
	ActivationWindow uint64

	// Seed makes runs reproducible (default 1).
	Seed uint64
	// MaxRounds bounds the run (default 1<<22).
	MaxRounds uint64
	// RunFullBudget keeps the simulation running until MaxRounds even
	// after every node has synchronized — required by applications that
	// exchange data on the synchronized rounds.
	RunFullBudget bool
	// FaultTolerant enables the crash-tolerant Trapdoor variant.
	FaultTolerant bool

	// NewAgent overrides Protocol with a custom per-node agent factory —
	// the extension point for applications built on synchronized rounds.
	NewAgent func(id int, activation uint64, r *Rand) Agent
	// CustomAdversary and CustomSchedule override Adversary/Activation.
	CustomAdversary Adversary
	CustomSchedule  Schedule
	// Observers receive every round record (advanced use).
	Observers []Observer
}

// Result reports a synchronization run.
type Result struct {
	// AllSynced reports whether every node committed a round number.
	AllSynced bool
	// Rounds is the number of simulated rounds.
	Rounds uint64
	// MaxSyncLocal is the worst per-node synchronization time in local
	// rounds — the paper's complexity measure.
	MaxSyncLocal uint64
	// SyncRound[i] is the global round node i first output a number (0 =
	// never); Activated[i] its activation round.
	SyncRound []uint64
	Activated []uint64
	// Leaders is the number of nodes that consider themselves leader at
	// the end (1 in correct executions).
	Leaders int
	// PropertiesOK reports that no property violation was observed;
	// Violations lists any (capped). Summary is the checker's one-line
	// verdict.
	PropertiesOK bool
	Violations   []string
	Summary      string
	// Transmissions, Deliveries, Collisions, JammedLosses and
	// ClearBroadcasts summarize the medium.
	Transmissions   uint64
	Deliveries      uint64
	Collisions      uint64
	JammedLosses    uint64
	ClearBroadcasts uint64
	// HitMaxRounds reports the run stopped at the budget.
	HitMaxRounds bool
}

// withDefaults normalizes the configuration.
func (c Config) withDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = Trapdoor
	}
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.N == 0 {
		c.N = c.Nodes
		if c.N < 16 {
			c.N = 16
		}
	}
	if c.N < 2 {
		c.N = 2
	}
	if c.F == 0 {
		c.F = 8
	}
	if c.Adversary == "" {
		c.Adversary = "none"
	}
	if c.Activation == "" {
		c.Activation = "simultaneous"
	}
	if c.ActivationGap == 0 {
		c.ActivationGap = 1
	}
	if c.ActivationWindow == 0 {
		c.ActivationWindow = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.JammedPrefix == 0 {
		c.JammedPrefix = c.T
	}
	return c
}

// Run executes one synchronization run and reports the outcome. The
// named protocols other than BaselineSingleFreq build their nodes from one
// arena per call, so they batch-step; arena-built runs are bit-identical
// to runs of nodes built one at a time.
func Run(c Config) (*Result, error) {
	c = c.withDefaults()

	sched, err := c.schedule()
	if err != nil {
		return nil, err
	}
	if sched.N() < 1 {
		return nil, fmt.Errorf("wsync: schedule activates %d nodes, need >= 1", sched.N())
	}
	factory, err := c.agentFactory(sched.N())
	if err != nil {
		return nil, err
	}
	adv, err := c.adversary()
	if err != nil {
		return nil, err
	}

	check := props.NewChecker(sched.N())
	cfg := &sim.Config{
		F:              c.F,
		T:              c.T,
		Seed:           c.Seed,
		NewAgent:       factory,
		Schedule:       sched,
		Adversary:      adv,
		MaxRounds:      c.MaxRounds,
		RunToMaxRounds: c.RunFullBudget,
		Observers:      append([]sim.Observer{check}, c.Observers...),
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("wsync: %w", err)
	}

	out := &Result{
		AllSynced:       res.AllSynced,
		Rounds:          res.Stats.Rounds,
		MaxSyncLocal:    res.MaxSyncLocal,
		SyncRound:       res.SyncRound,
		Activated:       res.Activated,
		Leaders:         res.Leaders,
		PropertiesOK:    check.OK(),
		Summary:         check.Summary(),
		Transmissions:   res.Stats.Transmissions,
		Deliveries:      res.Stats.Deliveries,
		Collisions:      res.Stats.Collisions,
		JammedLosses:    res.Stats.DisruptedLosses,
		ClearBroadcasts: res.Stats.ClearBroadcasts,
		HitMaxRounds:    res.HitMaxRounds,
	}
	for _, v := range check.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out, nil
}

// agentFactory resolves the protocol into an engine agent factory for a
// run of count nodes.
func (c Config) agentFactory(count int) (func(sim.NodeID, uint64, *rng.Rand) sim.Agent, error) {
	if c.NewAgent != nil {
		custom := c.NewAgent
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return custom(int(id), activation, r)
		}, nil
	}
	switch c.Protocol {
	case Trapdoor:
		p := trapdoor.Params{N: c.N, F: c.F, T: c.T, FaultTolerant: c.FaultTolerant}
		if c.FaultTolerant {
			p.CommitThreshold = 2
		}
		a, err := trapdoor.NewArena(p, count)
		if err != nil {
			return nil, fmt.Errorf("wsync: %w", err)
		}
		return a.NewAgent, nil
	case GoodSamaritan:
		a, err := samaritan.NewArena(samaritan.Params{N: c.N, F: c.F, T: c.T}, count)
		if err != nil {
			return nil, fmt.Errorf("wsync: %w", err)
		}
		return a.NewAgent, nil
	case BaselineWakeup:
		return baseline.NewWakeupArena(c.N, c.F, count).NewAgent, nil
	case BaselineRoundRobin:
		return baseline.NewRoundRobinArena(c.N, c.F, count).NewAgent, nil
	case BaselineSingleFreq:
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return baseline.NewSingleFreq(c.N, r)
		}, nil
	default:
		return nil, fmt.Errorf("wsync: unknown protocol %q", c.Protocol)
	}
}

// schedule resolves the activation schedule.
func (c Config) schedule() (sim.Schedule, error) {
	if c.CustomSchedule != nil {
		return c.CustomSchedule, nil
	}
	switch c.Activation {
	case "simultaneous":
		return sim.Simultaneous{Count: c.Nodes}, nil
	case "staggered":
		return sim.Staggered{Count: c.Nodes, Gap: c.ActivationGap}, nil
	case "random":
		return sim.RandomWindow(c.Nodes, c.ActivationWindow, c.Seed+0x5eed), nil
	default:
		return nil, fmt.Errorf("wsync: unknown activation %q", c.Activation)
	}
}

// adversary resolves the jammer.
func (c Config) adversary() (sim.Adversary, error) {
	if c.CustomAdversary != nil {
		return c.CustomAdversary, nil
	}
	if c.Adversary == "fixed" && c.JammedPrefix != c.T {
		if c.JammedPrefix < 0 || c.JammedPrefix > c.T {
			return nil, fmt.Errorf("wsync: JammedPrefix %d outside [0, T=%d]", c.JammedPrefix, c.T)
		}
		return adversary.NewPrefix(c.F, c.JammedPrefix), nil
	}
	adv, err := adversary.New(c.Adversary, c.F, c.T, c.Seed+0xadc)
	if err != nil {
		return nil, fmt.Errorf("wsync: %w", err)
	}
	return adv, nil
}

// NewTrapdoorNode constructs a Trapdoor Protocol agent directly; use it to
// embed the protocol inside a custom agent (see examples/jammed_hopping).
func NewTrapdoorNode(p TrapdoorParams, r *Rand) (Agent, error) {
	return trapdoor.New(p, r)
}

// NewGoodSamaritanNode constructs a Good Samaritan Protocol agent directly.
func NewGoodSamaritanNode(p SamaritanParams, r *Rand) (Agent, error) {
	return samaritan.New(p, r)
}
