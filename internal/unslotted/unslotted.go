package unslotted

import (
	"errors"
	"fmt"

	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Config describes an unslotted simulation. Time advances in half-slots
// (1-based); global protocol round k >= 1 occupies half-slots
// [2k−1+φ, 2k+φ] of a node whose phase is φ ∈ {0, 1}.
type Config struct {
	// F is the number of frequencies; T the adversary budget per
	// half-slot.
	F int
	T int
	// Seed drives all randomness.
	Seed uint64
	// NewAgent constructs node i's protocol (an ordinary slotted agent).
	NewAgent func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent
	// N is the number of nodes.
	N int
	// Phase returns node i's phase parity (0 or 1); nil means all zero.
	// Random phases model unsynchronized clocks.
	Phase func(i int) int
	// ActivationRound returns node i's activation in protocol rounds
	// (>= 1); nil means all activate in round 1.
	ActivationRound func(i int) uint64
	// Adversary jams up to T frequencies per half-slot; nil means none.
	// It sees the half-slot index as the round number.
	Adversary sim.Adversary
	// MaxRounds bounds the run in protocol rounds (0 = sim default).
	MaxRounds uint64
	// RunToMax disables the default stop rule, which ends the run once
	// every node reports a non-⊥ output.
	RunToMax bool
}

// Result reports an unslotted run.
type Result struct {
	// Rounds is the number of protocol rounds executed (half-slots / 2).
	Rounds uint64
	// AllSynced reports whether every node committed.
	AllSynced bool
	// SyncRound[i] is the local protocol round at which node i first
	// output a number (0 = never).
	SyncRound []uint64
	// Leaders counts agents reporting leadership at the end.
	Leaders int
	// Deliveries counts successful protocol-message receptions.
	Deliveries uint64
	// HitMaxRounds reports that the budget ran out.
	HitMaxRounds bool
}

// RandomPhases returns a Phase function drawing each node's parity
// uniformly from seed.
func RandomPhases(n int, seed uint64) func(i int) int {
	r := rng.New(seed)
	phases := make([]int, n)
	for i := range phases {
		phases[i] = r.Intn(2)
	}
	return func(i int) int { return phases[i] }
}

// Run executes the unslotted simulation on sim.RunGraph over the complete
// graph, one core round per half-slot (see the package doc). The core
// validates F and T.
func Run(c *Config) (*Result, error) {
	switch {
	case c.N < 1:
		return nil, errors.New("unslotted: N < 1")
	case c.NewAgent == nil:
		return nil, errors.New("unslotted: NewAgent required")
	}
	maxRounds := c.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	d := &driver{
		cfg:   c,
		acts:  make([]uint64, c.N),
		nodes: make([]*node, c.N),
		res:   Result{SyncRound: make([]uint64, c.N)},
	}
	// A node activating in protocol round a wakes in half-slot 2a−1+φ.
	wakes := make([]uint64, c.N)
	for i := range wakes {
		a, phase := uint64(1), 0
		if c.ActivationRound != nil {
			if a = c.ActivationRound(i); a < 1 {
				return nil, fmt.Errorf("unslotted: node %d activation %d", i, a)
			}
		}
		if c.Phase != nil {
			if phase = c.Phase(i); phase < 0 || phase > 1 {
				return nil, fmt.Errorf("unslotted: node %d phase %d not in {0,1}", i, phase)
			}
		}
		d.acts[i], wakes[i] = a, 2*a-1+uint64(phase)
	}
	s, err := sim.RunGraph(&sim.Config{
		F:              c.F,
		T:              c.T,
		Seed:           c.Seed,
		NewAgent:       d.newNode,
		Schedule:       sim.Explicit{Rounds: wakes},
		Adversary:      c.Adversary,
		MaxRounds:      2*maxRounds + 2,
		StopWhen:       d.stop,
		RunToMaxRounds: true,
	}, sim.NewClique(c.N), nil)
	if err != nil {
		return nil, err
	}
	d.res.HitMaxRounds = s.HitMaxRounds
	d.finish()
	return &d.res, nil
}

// driver is one run's state; its nodes are the core's agents, and all of
// it runs on the core's goroutine.
type driver struct {
	cfg   *Config
	acts  []uint64 // per node: activation in protocol rounds
	nodes []*node  // nil until the node wakes
	res   Result
}

// stop runs after every half-slot. At even half-slots it counts protocol
// rounds and, unless RunToMax is set, ends the run once every node is
// awake and synced, polling the nodes in ID order.
func (d *driver) stop(h *sim.History) bool {
	if h.Completed%2 != 0 {
		return false
	}
	d.res.Rounds = h.Completed / 2
	if d.cfg.RunToMax {
		return false
	}
	for _, n := range d.nodes {
		if n == nil || !n.poll() {
			return false
		}
	}
	return true
}

// finish delivers what is still pending, polls every node a last time and
// counts leaders.
func (d *driver) finish() {
	d.res.AllSynced = true
	for i, n := range d.nodes {
		if n == nil {
			d.res.AllSynced = false
			continue
		}
		n.finishRound()
		d.res.AllSynced = d.res.AllSynced && n.synced
		d.res.SyncRound[i] = n.syncAt
		if lr, ok := n.agent.(sim.LeaderReporter); ok && lr.IsLeader() {
			d.res.Leaders++
		}
	}
}

// node is one slotted agent as a core agent stepped every half-slot: each
// protocol round spans two of its local half-slots and sends the same
// action in both.
type node struct {
	d      *driver
	agent  sim.Agent
	act    sim.Action // this protocol round's action
	local  uint64     // this protocol round, local to the node
	got    bool       // received in this protocol round already
	gotMsg msg.Message
	synced bool
	syncAt uint64
}

// newNode hands Config.NewAgent the node's protocol activation round, not
// the half-slot the core wakes it in.
func (d *driver) newNode(id sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
	n := &node{d: d, agent: d.cfg.NewAgent(id, d.acts[id], r)}
	d.nodes[id] = n
	return n
}

// Step starts a protocol round on odd local half-slots, after handing the
// agent the previous round's reception, and repeats its action on even
// ones.
func (n *node) Step(hs uint64) sim.Action {
	if hs%2 == 1 {
		if n.local > 0 {
			n.finishRound()
		}
		n.local = (hs + 1) / 2
		n.act = n.agent.Step(n.local)
	}
	return n.act
}

// Deliver keeps the round's first reception for the agent.
func (n *node) Deliver(m msg.Message) {
	if !n.got {
		n.got, n.gotMsg = true, m
		n.d.res.Deliveries++
	}
}

// Output is always ⊥: the driver polls the agent's output itself.
func (n *node) Output() sim.Output { return sim.Output{} }

// finishRound delivers the round's pending reception and polls the
// agent's output.
func (n *node) finishRound() {
	if n.got {
		n.agent.Deliver(n.gotMsg)
		n.got = false
	}
	n.poll()
}

// poll records the local round at which the agent first reports a non-⊥
// output, and reports whether it has.
func (n *node) poll() bool {
	if !n.synced && n.agent.Output().Synced {
		n.synced, n.syncAt = true, n.local
	}
	return n.synced
}
