package trapdoor

import (
	"fmt"

	"wsync/internal/core"
	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Params configures the Trapdoor Protocol. The zero value is not valid;
// use at least N and F, and call Validate (done by New) to catch mistakes.
type Params struct {
	// N is the known upper bound on the number of participants (>= 2; it
	// is rounded up to a power of two, as the paper assumes).
	N int
	// F is the number of frequencies and T the adversary's disruption
	// budget (0 <= T < F).
	F int
	T int

	// CEpoch scales the regular epoch length ℓE = CEpoch·⌈F'/(F'−T)⌉·lgN;
	// 0 means DefaultCEpoch. The paper leaves the Θ-constant open.
	CEpoch int
	// CFinal scales the final epoch length ℓE+ = CFinal·⌈F'²/(F'−T)⌉·lgN;
	// 0 means DefaultCFinal.
	CFinal int
	// LeaderTxProb is the leader's per-round announcement probability;
	// 0 means 1/2 (the paper's value).
	LeaderTxProb float64

	// FaultTolerant enables the Section 8 crash-tolerance extension.
	FaultTolerant bool
	// LeaderTimeout is the number of local rounds without hearing the
	// leader after which a fault-tolerant node restarts the competition;
	// 0 means the paper's Ω(F'²/(F'−t)·logN) default.
	LeaderTimeout uint64
	// CommitThreshold is the number of leader messages a fault-tolerant
	// node must hear before committing its output; 0 means 1 (commit on
	// first message), the paper's non-fault-tolerant behavior.
	CommitThreshold int

	// AblationNoKnockout disables the trapdoor knockout rule. With it set,
	// every surviving contender becomes a leader, demonstrating why the
	// competition is what makes Agreement hold (experiment X4).
	AblationNoKnockout bool
}

// Defaults for the Θ-constants. They are tuned so that agreement holds with
// high probability across the experiment grid in EXPERIMENTS.md; the final
// epoch in particular needs enough rounds for the eventual winner to knock
// out every runner-up even when only F'−t = 1 channel is usable.
const (
	DefaultCEpoch = 6
	DefaultCFinal = 6
)

// withDefaults returns p with zero fields replaced by defaults. The public
// methods apply it on every call; nodes and arenas apply it once, through
// newSchedule, and read the derived table from then on.
func (p Params) withDefaults() Params {
	if p.CEpoch == 0 {
		p.CEpoch = DefaultCEpoch
	}
	if p.CFinal == 0 {
		p.CFinal = DefaultCFinal
	}
	if p.LeaderTxProb == 0 {
		p.LeaderTxProb = 0.5
	}
	if p.CommitThreshold == 0 {
		p.CommitThreshold = 1
	}
	if p.N < 2 {
		p.N = 2
	}
	p.N = freqdist.NextPow2(p.N)
	if p.FaultTolerant && p.LeaderTimeout == 0 {
		fp := p.FPrime()
		p.LeaderTimeout = 8 * uint64(ceilDiv(fp*fp, fp-p.T)) * uint64(p.LgN())
	}
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.F < 1 {
		return fmt.Errorf("trapdoor: F = %d, need >= 1", p.F)
	}
	if p.T < 0 || p.T >= p.F {
		return fmt.Errorf("trapdoor: T = %d, need 0 <= T < F = %d", p.T, p.F)
	}
	if p.LeaderTxProb < 0 || p.LeaderTxProb > 1 {
		return fmt.Errorf("trapdoor: LeaderTxProb = %v out of [0,1]", p.LeaderTxProb)
	}
	return nil
}

// FPrime returns F' = min(F, 2T), clamped to at least 1 (T = 0 would
// otherwise make it zero; one frequency suffices when nothing is jammed).
func (p Params) FPrime() int {
	fp := 2 * p.T
	if fp > p.F {
		fp = p.F
	}
	if fp < 1 {
		fp = 1
	}
	return fp
}

// LgN returns the number of epochs, lg of the (power-of-two) participant
// bound, at least 1.
func (p Params) LgN() int {
	n := freqdist.NextPow2(p.N)
	lg := freqdist.CeilLog2(n)
	if lg < 1 {
		lg = 1
	}
	return lg
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// EpochLen returns ℓE, the length of epochs 1..lgN−1 (Figure 1).
func (p Params) EpochLen() uint64 {
	q := p.withDefaults()
	fp := q.FPrime()
	return uint64(q.CEpoch) * uint64(ceilDiv(fp, fp-q.T)) * uint64(q.LgN())
}

// FinalEpochLen returns ℓE+, the length of the last epoch (Figure 1).
func (p Params) FinalEpochLen() uint64 {
	q := p.withDefaults()
	fp := q.FPrime()
	return uint64(q.CFinal) * uint64(ceilDiv(fp*fp, fp-q.T)) * uint64(q.LgN())
}

// BroadcastProb returns the contender broadcast probability for epoch e
// (1-based): 2^e/(2N), which is 1/N, 2/N, ..., 1/4, 1/2 as in Figure 1.
func (p Params) BroadcastProb(e int) float64 {
	q := p.withDefaults()
	lg := q.LgN()
	if e < 1 {
		e = 1
	}
	if e > lg {
		e = lg
	}
	return float64(uint64(1)<<uint(e)) / (2 * float64(q.N))
}

// EffectiveLeaderTimeout returns the leader-silence timeout after defaults
// are applied (meaningful in fault-tolerant mode).
func (p Params) EffectiveLeaderTimeout() uint64 {
	return p.withDefaults().LeaderTimeout
}

// TotalRounds returns the competition's worst-case length: the sum of all
// epoch lengths. Theorem 10's bound is this plus the leader's announcement
// time.
func (p Params) TotalRounds() uint64 {
	lg := p.LgN()
	return uint64(lg-1)*p.EpochLen() + p.FinalEpochLen()
}

// ScheduleRow describes one epoch for schedule tables (Figure 1).
type ScheduleRow struct {
	Epoch  int
	Length uint64
	Prob   float64
}

// Schedule returns the full epoch table, reproducing Figure 1.
func (p Params) Schedule() []ScheduleRow {
	lg := p.LgN()
	rows := make([]ScheduleRow, lg)
	for e := 1; e <= lg; e++ {
		length := p.EpochLen()
		if e == lg {
			length = p.FinalEpochLen()
		}
		rows[e-1] = ScheduleRow{Epoch: e, Length: length, Prob: p.BroadcastProb(e)}
	}
	return rows
}

// schedule is the Figure 1 epoch schedule of one Params, derived once when
// a node or arena is built so that the step reads it instead of recomputing
// it. Each entry is filled by the Params method of the same quantity, so the
// two cannot disagree. A schedule is read-only after newSchedule; an
// arena's nodes share one.
type schedule struct {
	Params // with defaults applied

	lgN      int
	epochLen uint64    // ℓE, epochs 1..lgN−1
	finalLen uint64    // ℓE+, epoch lgN
	prob     []float64 // prob[e] = BroadcastProb(e) for e in 0..lgN
}

// newSchedule derives the schedule of validated parameters p.
func newSchedule(p Params) *schedule {
	p = p.withDefaults()
	s := &schedule{
		Params:   p,
		lgN:      p.LgN(),
		epochLen: p.EpochLen(),
		finalLen: p.FinalEpochLen(),
	}
	s.prob = make([]float64, s.lgN+1)
	for e := range s.prob {
		s.prob[e] = p.BroadcastProb(e)
	}
	return s
}

// Node is one Trapdoor Protocol participant. It implements sim.Agent,
// sim.BroadcastProber and sim.LeaderReporter. Nodes are not safe for
// concurrent use; the engine drives them all from the goroutine that
// called sim.Run or sim.RunGraph. A node reads its parameters and epoch schedule through p, which New builds
// per node and an Arena shares across its slots.
type Node struct {
	p    *schedule
	r    *rng.Rand
	dist freqdist.Uniform // uniform over [1..F']

	uid  uint64
	age  uint64
	role core.Role
	out  core.OutputState

	epoch      int
	epochRound uint64

	scheme       uint64
	leaderHeard  int    // leader messages received (for CommitThreshold)
	lastLeader   uint64 // local round when a leader was last heard
	everRestarts int

	// arena is non-nil for arena-built nodes and doubles as the batch
	// cohort key: one slab, one cohort.
	arena *Arena
}

var (
	_ sim.Agent           = (*Node)(nil)
	_ sim.BatchAgent      = (*Node)(nil)
	_ sim.BroadcastProber = (*Node)(nil)
	_ sim.LeaderReporter  = (*Node)(nil)
)

// New returns a fresh contender. It returns an error for invalid
// parameters.
func New(p Params, r *rng.Rand) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := newSchedule(p)
	return &Node{
		p:          s,
		r:          r,
		dist:       freqdist.NewUniform(1, s.FPrime()),
		uid:        core.NewUID(r, s.N),
		role:       core.RoleContender,
		epoch:      1,
		epochRound: 0,
	}, nil
}

// MustNew is New for callers with static parameters; it panics on error.
func MustNew(p Params, r *rng.Rand) *Node {
	n, err := New(p, r)
	if err != nil {
		panic(err)
	}
	return n
}

// Arena pools Node construction for one engine run: count slots laid out in
// one contiguous slab, with parameters validated once and one epoch schedule
// derived once and shared read-only by all slots. Its NewAgent matches
// sim.Config.NewAgent and draws exactly what New draws from the node's rng
// stream, so arena-built runs are bit-identical to MustNew-built runs; slot
// i is only ever touched by node i. Arena-built nodes form one batch cohort
// (the arena pointer is the cohort key). The experiment catalogue builds
// one arena per trial, and wsync.Run one per call: concurrent runs never
// share one.
type Arena struct {
	p     *schedule
	nodes []Node
}

// NewArena returns an arena with count slots for parameters p. It returns
// an error for invalid parameters.
func NewArena(p Params, count int) (*Arena, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Arena{p: newSchedule(p), nodes: make([]Node, count)}, nil
}

// MustNewArena is NewArena for callers with static parameters.
func MustNewArena(p Params, count int) *Arena {
	a, err := NewArena(p, count)
	if err != nil {
		panic(err)
	}
	return a
}

// NewAgent constructs node id in its arena slot; it has the signature of
// sim.Config.NewAgent and performs no allocation.
func (a *Arena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	nd := &a.nodes[id]
	*nd = Node{
		p:     a.p,
		r:     r,
		dist:  freqdist.NewUniform(1, a.p.FPrime()),
		uid:   core.NewUID(r, a.p.N),
		role:  core.RoleContender,
		epoch: 1,
		arena: a,
	}
	return nd
}

// UID returns the node's identifier (visible for tests and tools).
func (n *Node) UID() uint64 { return n.uid }

// Scheme returns the adopted numbering scheme's identifier (the deciding
// leader's UID); meaningful once the node is synced.
func (n *Node) Scheme() uint64 { return n.scheme }

// Role returns the node's current role.
func (n *Node) Role() core.Role { return n.role }

// Restarts returns how many times the fault-tolerant extension restarted
// the competition on this node.
func (n *Node) Restarts() int { return n.everRestarts }

// IsLeader reports whether the node won the competition.
func (n *Node) IsLeader() bool { return n.role == core.RoleLeader }

// timestamp returns the node's current timestamp (ra, uid).
func (n *Node) timestamp() msg.Timestamp {
	return msg.Timestamp{Age: n.age, UID: n.uid}
}

// epochLen returns the length of epoch e.
func (n *Node) epochLen(e int) uint64 {
	if e == n.p.lgN {
		return n.p.finalLen
	}
	return n.p.epochLen
}

// BroadcastProb reports the probability that the upcoming Step transmits.
func (n *Node) BroadcastProb() float64 {
	switch n.role {
	case core.RoleContender:
		e := n.epoch
		if n.epochRound >= n.epochLen(e) && e < n.p.lgN {
			e++
		}
		return n.p.prob[e]
	case core.RoleLeader:
		return n.p.LeaderTxProb
	default:
		return 0
	}
}

// restart re-enters the competition after a leader timeout (fault-tolerant
// mode only). The output state is preserved: a node that committed keeps
// counting rounds in the old numbering, and will re-announce that numbering
// if it wins.
func (n *Node) restart() {
	n.role = core.RoleContender
	n.epoch = 1
	n.epochRound = 0
	n.leaderHeard = 0
	n.lastLeader = n.age
	n.everRestarts++
}

// Step implements sim.Agent. It is a thin wrapper over the packed step —
// the single implementation both dispatch paths share, which is what makes
// batch and per-node stepping byte-identical by construction.
func (n *Node) Step(local uint64) sim.Action {
	var a sim.Action
	f, tx := n.step(local, &a.Msg)
	a.Freq, a.Transmit = int(f), tx
	return a
}

// Cohort implements sim.BatchAgent: arena-built nodes batch per arena;
// directly constructed nodes opt out. The experiment catalogue builds its
// Trapdoor nodes from per-trial arenas; only the ones another agent wraps
// (X3's crashing leader, X5's unslotted half, X6's replicas) step alone.
func (n *Node) Cohort() any {
	if n.arena == nil {
		return nil
	}
	return n.arena
}

// StepBatch implements sim.BatchAgent: one devirtualized loop over the
// cohort's slab, writing straight into the engine's action arrays and
// reading each node's output while its state is still in cache. Message
// payloads are written only for transmitters.
func (n *Node) StepBatch(ids []int, r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message, outs []sim.Output) {
	nodes := n.arena.nodes
	for _, id := range ids {
		nd := &nodes[id]
		f, tx := nd.step(r-activation[id]+1, &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
		outs[id] = nd.Output()
	}
}

// step advances the node one local round, writing the outgoing message via
// m only when it transmits.
func (n *Node) step(local uint64, m *msg.Message) (freq int32, transmit bool) {
	n.age = local
	n.out.Tick()

	if n.p.FaultTolerant && (n.role == core.RoleSynced || n.role == core.RoleKnockedOut) {
		if n.age-n.lastLeader > n.p.LeaderTimeout {
			n.restart()
		}
	}

	switch n.role {
	case core.RoleContender:
		// Advance epochs; surviving the last one wins the competition.
		for n.epochRound >= n.epochLen(n.epoch) {
			n.epochRound -= n.epochLen(n.epoch)
			n.epoch++
			if n.epoch > n.p.lgN {
				n.becomeLeader()
				return n.leaderStep(m)
			}
		}
		n.epochRound++
		f := int32(n.dist.Sample(n.r))
		if n.r.Bernoulli(n.p.prob[n.epoch]) {
			*m = msg.Message{Kind: msg.KindContender, TS: n.timestamp()}
			return f, true
		}
		return f, false

	case core.RoleLeader:
		return n.leaderStep(m)

	default: // knocked out, synced: listen on a random competition channel
		return int32(n.dist.Sample(n.r)), false
	}
}

// becomeLeader promotes the node: it decides the numbering scheme. If it
// already adopted a numbering (fault-tolerant restart), it continues that
// scheme rather than inventing a new one.
func (n *Node) becomeLeader() {
	n.role = core.RoleLeader
	if !n.out.Synced() {
		n.scheme = n.uid
		n.out.Adopt(n.age)
	}
}

// leaderStep announces the numbering with probability LeaderTxProb.
func (n *Node) leaderStep(m *msg.Message) (freq int32, transmit bool) {
	f := int32(n.dist.Sample(n.r))
	if n.r.Bernoulli(n.p.LeaderTxProb) {
		*m = msg.Message{
			Kind:   msg.KindLeader,
			TS:     n.timestamp(),
			Round:  n.out.Value(),
			Scheme: n.scheme,
		}
		return f, true
	}
	return f, false
}

// Deliver implements sim.Agent.
func (n *Node) Deliver(m msg.Message) {
	switch m.Kind {
	case msg.KindLeader:
		n.deliverLeader(m)
	case msg.KindContender:
		if n.p.AblationNoKnockout {
			return
		}
		if n.role == core.RoleContender && n.timestamp().Less(m.TS) {
			n.role = core.RoleKnockedOut
			n.lastLeader = n.age // start the leader-silence clock
		}
	default:
		// Samaritan/data messages do not occur in pure Trapdoor runs.
	}
}

// deliverLeader adopts a leader's numbering, honoring the commit threshold
// in fault-tolerant mode. A leader hearing a larger-timestamped leader
// defers to it (a corner the analysis makes unlikely, but the
// implementation must resolve deterministically).
func (n *Node) deliverLeader(m msg.Message) {
	if n.role == core.RoleLeader {
		if !n.timestamp().Less(m.TS) {
			return
		}
		// Defer to the older leader.
	}
	n.lastLeader = n.age
	n.leaderHeard++
	n.role = core.RoleSynced
	n.scheme = m.Scheme
	if n.leaderHeard >= n.p.CommitThreshold || n.out.Synced() {
		n.out.Adopt(m.Round)
	}
}

// Output implements sim.Agent.
func (n *Node) Output() sim.Output {
	if !n.out.Synced() {
		return sim.Output{}
	}
	return sim.Output{Value: n.out.Value(), Synced: true}
}
