package rendezvous

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// totalNodeRounds accumulates awake party-rounds over every completed game
// in this process; wexp samples TotalNodeRounds around each experiment to
// derive the node-rounds/s figure in the benchmark report.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of awake party-rounds
// executed by completed games. Deterministic for a deterministic workload —
// it never depends on scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// Party configures one participant of the game.
type Party struct {
	// Strategy decides the party's per-round behavior. Stateful strategies
	// must not be shared between parties.
	Strategy Strategy
	// Wake is the global round the party enters the game; 0 and 1 both
	// mean it plays from round 1.
	Wake uint64
	// Head offsets the party's local clock: the number of rounds it had
	// already been playing elsewhere when the game starts (Theorem 4's
	// activation offset). Local round at global round g is
	// Head + (g − Wake + 1).
	Head uint64
	// Mask statically blocks channels for this party alone: a reception by
	// this party on a masked channel is jammed, while other parties'
	// receptions are untouched.
	Mask []int
}

// MaskModel evolves per-party channel masks between rounds — the
// rendezvous-side dynamic-topology hook. MaskDeltas is called once per
// round from round 2 on (round 1 plays on the initial, fully unblocked
// mask state) and returns the (party, channel) pairs to block and
// unblock this round. Blocking an already-blocked pair, unblocking an
// unblocked one, or naming a party or channel out of range fails the run.
// Returned slices are only read before the next call, so models may
// reuse their buffers.
type MaskModel interface {
	MaskDeltas(r uint64) (block, unblock [][2]int)
}

// Config configures a rendezvous game.
type Config struct {
	// F is the band size (channels 1..F).
	F int
	// Parties lists the k >= 2 participants.
	Parties []Party
	// Jammer blocks channels globally each round; nil means none.
	Jammer Jammer
	// Masks churns per-party channel masks between rounds; nil means the
	// static Party.Mask sets are the whole story. A dynamic block is
	// independent of the static mask: it may cover a statically masked
	// channel, and unblocking it leaves the static mask in place.
	Masks MaskModel
	// MaxRounds bounds the game length.
	MaxRounds uint64
	// Seed drives all party randomness; party p's stream is
	// rng.New(Seed).Split(p+1), matching the historical two-node game.
	Seed uint64
}

// Result reports one game.
type Result struct {
	// FirstMeet is the global round of the first meeting — a clean
	// reception of one party's transmission by another party — or 0 if
	// none happened within MaxRounds.
	FirstMeet uint64
	// AllMet is the global round at which the meeting graph first
	// connected all k parties (pairwise meetings merge components), or 0.
	// For k = 2 it equals FirstMeet.
	AllMet uint64
	// Meetings counts every clean pairwise reception, including repeats.
	Meetings uint64
	// Rounds is the number of rounds simulated (the game stops at AllMet).
	Rounds uint64
	// NodeRounds counts awake party-rounds, the engine's throughput unit.
	NodeRounds uint64
}

// Run plays the game on sim.RunGraph (see the package doc). A bad pick or
// mask delta ends the run with an error and counts no node-rounds.
func Run(cfg *Config) (*Result, error) {
	k := len(cfg.Parties)
	if cfg.F < 1 {
		return nil, fmt.Errorf("rendezvous: F = %d, need >= 1", cfg.F)
	}
	if k < 2 {
		return nil, fmt.Errorf("rendezvous: %d parties, need >= 2", k)
	}
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("rendezvous: MaxRounds = %d, need >= 1", cfg.MaxRounds)
	}
	for p, pt := range cfg.Parties {
		if pt.Strategy == nil {
			return nil, fmt.Errorf("rendezvous: party %d has no strategy", p)
		}
		for _, f := range pt.Mask {
			if f < 1 || f > cfg.F {
				return nil, fmt.Errorf("rendezvous: party %d masks channel %d outside [1..%d]", p, f, cfg.F)
			}
		}
	}

	g := newGame(cfg)
	s, err := sim.RunGraph(&sim.Config{
		F:              cfg.F,
		Seed:           cfg.Seed,
		NewAgent:       g.newParty,
		Schedule:       sim.Explicit{Rounds: g.wakes},
		Adversary:      g,
		MaxRounds:      cfg.MaxRounds,
		StopWhen:       func(*sim.History) bool { return g.err != nil || g.res.AllMet != 0 },
		RunToMaxRounds: true,
	}, sim.NewClique(k), nil)
	if err == nil {
		err = g.err
	}
	if err != nil {
		return nil, err
	}
	g.res.Rounds, g.res.NodeRounds = s.Stats.Rounds, s.Stats.NodeRounds
	totalNodeRounds.Add(g.res.NodeRounds)
	return &g.res, nil
}

// Bits of game.masked.
const (
	staticMask uint8 = 1 << iota
	dynamicMask
)

// game is one run's state. It is the core's adversary, and its parties
// are the core's agents; all of them run on the core's goroutine.
type game struct {
	cfg   *Config
	wakes []uint64 // per party, clamped to >= 1

	// round is the jammer's view, refreshed before the parties step; its
	// Last aliases last, which the parties overwrite only after Block.
	round Round
	last  []Action

	// blocked is the jammer's set this round (nil: none). masked holds
	// each party's static and dynamic mask bits, indexed p·F + ch − 1.
	blocked *freqset.Set
	masked  []uint8

	parent []int // union-find over parties, merged by meetings
	comps  int
	res    Result
	err    error // first bad pick or mask delta; ends the run
}

var _ sim.ListenerDisrupter = (*game)(nil)
var _ sim.HistoryBlind = (*game)(nil)

func newGame(cfg *Config) *game {
	k := len(cfg.Parties)
	g := &game{
		cfg:    cfg,
		wakes:  make([]uint64, k),
		round:  Round{F: cfg.F, Locals: make([]uint64, k), Strategies: make([]Strategy, k)},
		last:   make([]Action, k),
		masked: make([]uint8, k*cfg.F),
		parent: make([]int, k),
		comps:  k,
	}
	for p, pt := range cfg.Parties {
		g.wakes[p] = max(pt.Wake, 1)
		g.round.Strategies[p] = pt.Strategy
		g.parent[p] = p
		for _, f := range pt.Mask {
			g.masked[p*cfg.F+f-1] |= staticMask
		}
	}
	return g
}

// Disrupt runs before the parties step in round r: it applies the mask
// deltas, then asks the jammer, so a stateful strategy's Pick still
// follows Block. The blocking it sets up reaches receptions through
// DisruptedAt; the core's global disrupted set stays empty.
func (g *game) Disrupt(r uint64, _ *sim.History) *freqset.Set {
	rd := &g.round
	rd.Global = r
	if g.cfg.Masks != nil && r >= 2 {
		block, unblock := g.cfg.Masks.MaskDeltas(r)
		// Unblocks apply first, so a model may retire and re-impose the
		// same slot across rounds.
		if g.err = g.toggleMasks(r, unblock, false); g.err == nil {
			g.err = g.toggleMasks(r, block, true)
		}
	}
	if g.cfg.Jammer != nil && g.err == nil {
		for p, w := range g.wakes {
			rd.Locals[p] = 0
			if w <= r {
				rd.Locals[p] = g.cfg.Parties[p].Head + (r - w + 1)
			}
		}
		if r >= 2 {
			rd.Last = g.last
		}
		g.blocked = g.cfg.Jammer.Block(rd)
	}
	return nil
}

// IgnoresHistory marks the game sim.HistoryBlind: jammers read Round,
// never the core's round records.
func (g *game) IgnoresHistory() {}

// DisruptedAt reports whether party i's reception on channel f is lost to
// the jammer or to i's mask.
func (g *game) DisruptedAt(i sim.NodeID, f int) bool {
	return g.blocked != nil && g.blocked.Contains(f) || g.masked[int(i)*g.cfg.F+f-1] != 0
}

// toggleMasks blocks (or unblocks) the dynamic mask of each (party,
// channel) pair, failing on a pair out of range or already in that state.
func (g *game) toggleMasks(r uint64, pcs [][2]int, block bool) error {
	for _, pc := range pcs {
		p, ch := pc[0], pc[1]
		if k := len(g.cfg.Parties); p < 0 || p >= k {
			return fmt.Errorf("rendezvous: round %d mask delta names party %d outside [0..%d]", r, p, k-1)
		}
		if ch < 1 || ch > g.cfg.F {
			return fmt.Errorf("rendezvous: round %d mask delta names channel %d outside [1..%d]", r, ch, g.cfg.F)
		}
		slot := &g.masked[p*g.cfg.F+ch-1]
		switch on := *slot&dynamicMask != 0; {
		case block && on:
			return fmt.Errorf("rendezvous: round %d blocks channel %d for party %d twice", r, ch, p)
		case !block && !on:
			return fmt.Errorf("rendezvous: round %d unblocks channel %d for party %d, which is not blocked", r, ch, p)
		}
		*slot ^= dynamicMask
	}
	return nil
}

// meet merges the components of a listener and the party it heard.
func (g *game) meet(v, from int) {
	g.res.Meetings++
	if g.res.FirstMeet == 0 {
		g.res.FirstMeet = g.round.Global
	}
	find := func(x int) int {
		for g.parent[x] != x {
			g.parent[x] = g.parent[g.parent[x]]
			x = g.parent[x]
		}
		return x
	}
	if rv, rf := find(v), find(from); rv != rf {
		g.parent[rv] = rf
		if g.comps--; g.comps == 1 {
			g.res.AllMet = g.round.Global
		}
	}
}

// party is one participant as a core agent. It draws from its historical
// stream rng.New(Seed).Split(p+1), not from the core's per-node stream.
type party struct {
	g     *game
	p     int
	s     Strategy
	head  uint64
	r     *rng.Rand
	hello msg.Message // what the party transmits: its index, as TS.UID
}

func (g *game) newParty(id sim.NodeID, _ uint64, _ *rng.Rand) sim.Agent {
	p := int(id)
	return &party{
		g:     g,
		p:     p,
		s:     g.cfg.Parties[p].Strategy,
		head:  g.cfg.Parties[p].Head,
		r:     rng.New(g.cfg.Seed).Split(uint64(p) + 1),
		hello: msg.Message{TS: msg.Timestamp{UID: uint64(p)}},
	}
}

// Step plays the strategy's pick for the party's local round. An
// out-of-band pick records the run's error and listens on channel 1, so
// the core sees a valid action for the round the error ends.
func (a *party) Step(local uint64) sim.Action {
	f, tx := a.s.Pick(a.head+local, a.r)
	if f < 1 || f > a.g.cfg.F {
		if a.g.err == nil {
			a.g.err = fmt.Errorf("rendezvous: party %d picked channel %d outside [1..%d] in round %d",
				a.p, f, a.g.cfg.F, a.g.round.Global)
		}
		f, tx = 1, false
	}
	a.g.last[a.p] = Action{Freq: f, Transmit: tx}
	return sim.Action{Freq: f, Transmit: tx, Msg: a.hello}
}

// Deliver is a meeting with the party that transmitted m.
func (a *party) Deliver(m msg.Message) { a.g.meet(a.p, int(m.TS.UID)) }

// Output is always ⊥: the game stops on AllMet, not on synchronization.
func (a *party) Output() sim.Output { return sim.Output{} }
