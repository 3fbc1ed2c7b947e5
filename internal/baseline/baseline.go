package baseline

import (
	"wsync/internal/core"
	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Wakeup is the no-competition baseline. See the package comment.
type Wakeup struct {
	n       int    // participant bound (power of two)
	lg      int    // lg n, at least 1: the ramp's epoch count and length
	rampLen uint64 // lg², the rounds after which a silent node leads
	f       int
	r       *rng.Rand
	uid     uint64
	age     uint64

	dist      freqdist.Uniform
	out       core.OutputState
	adopted   bool // adopted someone else's numbering
	committed bool // committed to its own numbering ("leader")

	// arena is non-nil for arena-built nodes and doubles as the batch
	// cohort key: one slab, one cohort.
	arena *WakeupArena
}

var (
	_ sim.Agent           = (*Wakeup)(nil)
	_ sim.BatchAgent      = (*Wakeup)(nil)
	_ sim.BroadcastProber = (*Wakeup)(nil)
	_ sim.LeaderReporter  = (*Wakeup)(nil)
)

// NewWakeup returns a wake-up baseline node for a system of at most n
// participants on f frequencies.
func NewWakeup(n, f int, r *rng.Rand) *Wakeup {
	if n < 2 {
		n = 2
	}
	pow := freqdist.NextPow2(n)
	lg := max(freqdist.CeilLog2(pow), 1)
	return &Wakeup{
		n:       pow,
		lg:      lg,
		rampLen: uint64(lg * lg),
		f:       f,
		r:       r,
		uid:     core.NewUID(r, n),
		dist:    freqdist.NewUniform(1, f),
	}
}

// WakeupArena pools Wakeup construction for one engine run: count slots in
// one contiguous slab, with the participant-bound arithmetic (the bound, its
// lg and the ramp length) done once.
// NewAgent draws exactly what NewWakeup draws from the node's rng stream
// (the UID bound is the clamped, not-yet-rounded n — preserved here so
// arena-built runs are bit-identical to NewWakeup-built runs). Arena-built
// nodes form one batch cohort (the arena pointer is the cohort key).
type WakeupArena struct {
	uidN    int // NewUID bound: clamped to >= 2, not rounded to a power of two
	n       int // participant bound (power of two)
	lg      int
	rampLen uint64
	f       int
	nodes   []Wakeup
}

// NewWakeupArena returns an arena with count slots for a system of at most
// n participants on f frequencies.
func NewWakeupArena(n, f, count int) *WakeupArena {
	if n < 2 {
		n = 2
	}
	pow := freqdist.NextPow2(n)
	lg := max(freqdist.CeilLog2(pow), 1)
	return &WakeupArena{
		uidN:    n,
		n:       pow,
		lg:      lg,
		rampLen: uint64(lg * lg),
		f:       f,
		nodes:   make([]Wakeup, count),
	}
}

// NewAgent constructs node id in its arena slot; it has the signature of
// sim.Config.NewAgent and performs no allocation.
func (a *WakeupArena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	w := &a.nodes[id]
	*w = Wakeup{
		n:       a.n,
		lg:      a.lg,
		rampLen: a.rampLen,
		f:       a.f,
		r:       r,
		uid:     core.NewUID(r, a.uidN),
		dist:    freqdist.NewUniform(1, a.f),
		arena:   a,
	}
	return w
}

// prob returns the ramped broadcast probability 2^e/(2N), epoch length
// lg N, capped at 1/2. The ramp is lg N epochs of lg N rounds each, after
// which a silent node assumes leadership (rampLen).
func (w *Wakeup) prob() float64 {
	e := int(w.age-1)/w.lg + 1
	if e > w.lg {
		e = w.lg
	}
	return float64(uint64(1)<<uint(e)) / (2 * float64(w.n))
}

// BroadcastProb implements sim.BroadcastProber.
func (w *Wakeup) BroadcastProb() float64 {
	if w.adopted {
		return 0
	}
	if w.committed {
		return 0.5
	}
	return w.prob()
}

// Step implements sim.Agent. It is a thin wrapper over the packed step —
// the single implementation both dispatch paths share, which is what makes
// batch and per-node stepping byte-identical by construction.
func (w *Wakeup) Step(local uint64) sim.Action {
	var a sim.Action
	f, tx := w.step(local, &a.Msg)
	a.Freq, a.Transmit = int(f), tx
	return a
}

// Cohort implements sim.BatchAgent: arena-built nodes batch per arena;
// directly constructed nodes opt out.
func (w *Wakeup) Cohort() any {
	if w.arena == nil {
		return nil
	}
	return w.arena
}

// StepBatch implements sim.BatchAgent: one devirtualized loop over the
// cohort's slab, writing straight into the engine's action arrays and
// reading each node's output while its state is still in cache. Message
// payloads are written only for transmitters.
func (w *Wakeup) StepBatch(ids []int, r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message, outs []sim.Output) {
	nodes := w.arena.nodes
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
func (w *Wakeup) step(local uint64, m *msg.Message) (freq int32, transmit bool) {
	w.age = local
	w.out.Tick()
	if w.adopted {
		return int32(w.dist.Sample(w.r)), false
	}
	if !w.committed && w.age > w.rampLen {
		// Heard nobody for the whole ramp: assume leadership.
		w.committed = true
		w.out.Adopt(w.age)
	}
	p := w.prob()
	if w.committed {
		p = 0.5
	}
	f := int32(w.dist.Sample(w.r))
	if w.r.Bernoulli(p) {
		*m = msg.Message{
			Kind:   msg.KindLeader,
			TS:     msg.Timestamp{Age: w.age, UID: w.uid},
			Round:  w.age, // proposed numbering: the sender's age
			Scheme: w.uid,
		}
		return f, true
	}
	return f, false
}

// Deliver implements sim.Agent: adopt the first larger timestamp's
// numbering unless already settled.
func (w *Wakeup) Deliver(m msg.Message) {
	if w.adopted || w.committed || m.Kind != msg.KindLeader {
		return
	}
	if (msg.Timestamp{Age: w.age, UID: w.uid}).Less(m.TS) {
		w.adopted = true
		w.out.Adopt(m.Round)
	}
}

// Output implements sim.Agent.
func (w *Wakeup) Output() sim.Output {
	if !w.out.Synced() {
		return sim.Output{}
	}
	return sim.Output{Value: w.out.Value(), Synced: true}
}

// IsLeader reports whether the node committed to its own numbering.
func (w *Wakeup) IsLeader() bool { return w.committed }

// SingleFreq is the wake-up baseline confined to one frequency. It
// demonstrates that without frequency diversity, a single jammed channel
// defeats synchronization entirely.
type SingleFreq struct {
	inner *Wakeup
}

var (
	_ sim.Agent           = (*SingleFreq)(nil)
	_ sim.BroadcastProber = (*SingleFreq)(nil)
	_ sim.LeaderReporter  = (*SingleFreq)(nil)
)

// NewSingleFreq returns a single-frequency baseline node.
func NewSingleFreq(n int, r *rng.Rand) *SingleFreq {
	return &SingleFreq{inner: NewWakeup(n, 1, r)}
}

// Step forwards to the wake-up logic, forcing frequency 1.
func (s *SingleFreq) Step(local uint64) sim.Action {
	a := s.inner.Step(local)
	a.Freq = 1
	return a
}

// Deliver forwards to the wake-up logic.
func (s *SingleFreq) Deliver(m msg.Message) { s.inner.Deliver(m) }

// Output forwards to the wake-up logic.
func (s *SingleFreq) Output() sim.Output { return s.inner.Output() }

// IsLeader forwards to the wake-up logic.
func (s *SingleFreq) IsLeader() bool { return s.inner.IsLeader() }

// BroadcastProb forwards to the wake-up logic.
func (s *SingleFreq) BroadcastProb() float64 { return s.inner.BroadcastProb() }

// RoundRobin is a deterministic baseline: frequency and role are pure
// functions of (age, uid). In each frame of F rounds a node hops across
// all frequencies; frames alternate between transmitting and listening,
// with the order decided by the identifier's parity. After SelfCommitFrames
// silent frames it assumes leadership.
type RoundRobin struct {
	f      int
	uid    uint64
	uidMod uint64 // uid % f, so a step needs only the one age/f division
	age    uint64
	out    core.OutputState

	adopted   bool
	committed bool

	// arena is non-nil for arena-built nodes and doubles as the batch
	// cohort key: one slab, one cohort.
	arena *RoundRobinArena
}

// SelfCommitFrames is the number of 2F-round frames a RoundRobin node
// waits before assuming leadership.
const SelfCommitFrames = 8

var (
	_ sim.Agent          = (*RoundRobin)(nil)
	_ sim.BatchAgent     = (*RoundRobin)(nil)
	_ sim.LeaderReporter = (*RoundRobin)(nil)
)

// NewRoundRobin returns a deterministic baseline node. The identifier is
// still drawn randomly (the only randomness, mirroring a MAC address).
func NewRoundRobin(n, f int, r *rng.Rand) *RoundRobin {
	uid := core.NewUID(r, n)
	return &RoundRobin{f: f, uid: uid, uidMod: uid % uint64(f)}
}

// RoundRobinArena pools RoundRobin construction for one engine run.
// NewAgent draws exactly what NewRoundRobin draws (the UID bound n is used
// raw, as the constructor uses it), so arena-built runs are bit-identical;
// arena-built nodes form one batch cohort (the arena pointer is the key).
type RoundRobinArena struct {
	n     int
	f     int
	nodes []RoundRobin
}

// NewRoundRobinArena returns an arena with count slots for a system of at
// most n participants on f frequencies.
func NewRoundRobinArena(n, f, count int) *RoundRobinArena {
	return &RoundRobinArena{n: n, f: f, nodes: make([]RoundRobin, count)}
}

// NewAgent constructs node id in its arena slot; it has the signature of
// sim.Config.NewAgent and performs no allocation.
func (a *RoundRobinArena) NewAgent(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
	rr := &a.nodes[id]
	uid := core.NewUID(r, a.n)
	*rr = RoundRobin{f: a.f, uid: uid, uidMod: uid % uint64(a.f), arena: a}
	return rr
}

// Step implements sim.Agent. It is a thin wrapper over the packed step —
// the single implementation both dispatch paths share, which is what makes
// batch and per-node stepping byte-identical by construction.
func (rr *RoundRobin) Step(local uint64) sim.Action {
	var a sim.Action
	f, tx := rr.step(local, &a.Msg)
	a.Freq, a.Transmit = int(f), tx
	return a
}

// Cohort implements sim.BatchAgent: arena-built nodes batch per arena;
// directly constructed nodes opt out.
func (rr *RoundRobin) Cohort() any {
	if rr.arena == nil {
		return nil
	}
	return rr.arena
}

// StepBatch implements sim.BatchAgent: one devirtualized loop over the
// cohort's slab, writing straight into the engine's action arrays and
// reading each node's output while its state is still in cache. Message
// payloads are written only for transmitters.
func (rr *RoundRobin) StepBatch(ids []int, r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message, outs []sim.Output) {
	nodes := rr.arena.nodes
	for _, id := range ids {
		nd := &nodes[id]
		f, tx := nd.step(r-activation[id]+1, &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
		outs[id] = nd.Output()
	}
}

// step advances the node one local round, writing the outgoing message via
// m only when it transmits. The channel is 1 + (age+uid) mod F, taken from
// the one age/F division that also yields the frame, and the message is
// written in place rather than built in a temporary and copied.
func (rr *RoundRobin) step(local uint64, m *msg.Message) (freq int32, transmit bool) {
	rr.age = local
	rr.out.Tick()
	fr := uint64(rr.f)
	frame, slot := rr.age/fr, rr.age%fr
	ch := slot + rr.uidMod
	if ch >= fr {
		ch -= fr
	}
	f := int32(1 + ch)
	if rr.adopted {
		return f, false
	}
	if !rr.committed && rr.age > uint64(2*SelfCommitFrames*rr.f) {
		rr.committed = true
		rr.out.Adopt(rr.age)
	}
	if frame&1 != rr.uid&1 {
		return f, false
	}
	round := rr.age
	if rr.committed {
		round = rr.out.Value()
	}
	*m = msg.Message{}
	m.Kind = msg.KindLeader
	m.TS = msg.Timestamp{Age: rr.age, UID: rr.uid}
	m.Round = round
	m.Scheme = rr.uid
	return f, true
}

// Deliver implements sim.Agent.
func (rr *RoundRobin) Deliver(m msg.Message) {
	if rr.adopted || rr.committed || m.Kind != msg.KindLeader {
		return
	}
	if (msg.Timestamp{Age: rr.age, UID: rr.uid}).Less(m.TS) {
		rr.adopted = true
		rr.out.Adopt(m.Round)
	}
}

// Output implements sim.Agent.
func (rr *RoundRobin) Output() sim.Output {
	if !rr.out.Synced() {
		return sim.Output{}
	}
	return sim.Output{Value: rr.out.Value(), Synced: true}
}

// IsLeader reports whether the node committed to its own numbering.
func (rr *RoundRobin) IsLeader() bool { return rr.committed }
