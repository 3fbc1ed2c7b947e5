package rendezvous

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/rng"
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
	// receptions are untouched. Expressed as per-party graph adjacency to
	// mask nodes, not as engine special cases.
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
	// static Party.Mask sets are the whole story. Dynamic masks
	// materialize as k·F dedicated virtual transmitters whose adjacency
	// to their party toggles per round, swapped into the resolver with
	// SetGraph — the same mechanism the multihop engine uses for edge
	// churn.
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

// gameGraph is the medium.Graph the engine resolves receptions against:
// parties are mutually adjacent, each mask node neighbors only its party,
// each global jam node neighbors every party, and each dynamic mask slot
// neighbors its party while blocked. Every edge is listed at both ends,
// the symmetry the resolver's transmitter-side push relies on.
//
// The k parties occupy node indices 0..k−1; blocked channels materialize
// as transmissions by virtual nodes above k (per-party mask nodes first,
// then one global jam node per channel, then the dynamic mask slots), so
// the resolver's ordinary neighborhood rule — not engine special cases —
// decides what is jammed for whom.
type gameGraph struct {
	adj [][]int

	masks   []maskNode // static mask nodes, from index k on
	jamBase int        // first global jam node: one per channel
	dynBase int        // first dynamic mask slot: one per (party, channel)
}

// maskNode is a static mask: a virtual transmitter on freq heard only by
// its owner.
type maskNode struct{ owner, freq int }

func (g *gameGraph) N() int                { return len(g.adj) }
func (g *gameGraph) Neighbors(i int) []int { return g.adj[i] }

// newGameGraph lays out the nodes of a validated configuration's game,
// with every dynamic mask slot unblocked.
func newGameGraph(cfg *Config) *gameGraph {
	k := len(cfg.Parties)
	g := &gameGraph{}
	for p, pt := range cfg.Parties {
		for _, f := range pt.Mask {
			g.masks = append(g.masks, maskNode{p, f})
		}
	}
	maskBase := k
	g.jamBase = maskBase + len(g.masks)
	jamNodes := 0
	if cfg.Jammer != nil {
		jamNodes = cfg.F // one virtual transmitter per blockable channel
	}
	// Dynamic masks get one dedicated node per (party, channel) slot so a
	// block/unblock is a pure adjacency toggle, never a node re-layout.
	g.dynBase = g.jamBase + jamNodes
	dynNodes := 0
	if cfg.Masks != nil {
		dynNodes = k * cfg.F
	}
	adj := make([][]int, g.dynBase+dynNodes)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if q != p {
				adj[p] = append(adj[p], q)
			}
		}
		for m, mn := range g.masks {
			if mn.owner == p {
				adj[p] = append(adj[p], maskBase+m)
			}
		}
		for j := 0; j < jamNodes; j++ {
			adj[p] = append(adj[p], g.jamBase+j)
		}
	}
	for m, mn := range g.masks {
		adj[maskBase+m] = []int{mn.owner}
	}
	if jamNodes > 0 {
		// Every jam node neighbors exactly the parties; share one slice.
		parties := make([]int, k)
		for p := range parties {
			parties[p] = p
		}
		for j := 0; j < jamNodes; j++ {
			adj[g.jamBase+j] = parties
		}
	}
	g.adj = adj
	return g
}

// Run plays the game.
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

	graph := newGameGraph(cfg)
	adj, masks, jamBase, dynBase := graph.adj, graph.masks, graph.jamBase, graph.dynBase
	maskBase := k
	res := medium.NewResolver(cfg.F, len(adj), graph)
	var dynBlocked []bool
	if dynNodes := len(adj) - dynBase; dynNodes > 0 {
		dynBlocked = make([]bool, dynNodes)
	}

	wakes := make([]uint64, k)
	strategies := make([]Strategy, k)
	rands := make([]*rng.Rand, k)
	root := rng.New(cfg.Seed)
	for p, pt := range cfg.Parties {
		wakes[p] = pt.Wake
		if wakes[p] == 0 {
			wakes[p] = 1
		}
		strategies[p] = pt.Strategy
		rands[p] = root.Split(uint64(p) + 1)
	}
	act := medium.NewActivation(wakes)

	// Union-find over parties; the game ends when one component remains.
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := k

	rd := &Round{F: cfg.F, Locals: make([]uint64, k), Strategies: strategies}
	cur := make([]Action, k)
	prev := make([]Action, k)
	out := &Result{}
	for g := uint64(1); g <= cfg.MaxRounds; g++ {
		if cfg.Masks != nil && g >= 2 {
			block, unblock := cfg.Masks.MaskDeltas(g)
			if len(block)+len(unblock) > 0 {
				if err := applyMaskDeltas(adj, dynBlocked, block, unblock, k, cfg.F, dynBase, g); err != nil {
					return nil, err
				}
				res.SetGraph(graph)
			}
		}
		act.Wake(g)
		rd.Global = g
		for p := 0; p < k; p++ {
			if wakes[p] <= g {
				rd.Locals[p] = cfg.Parties[p].Head + (g - wakes[p] + 1)
			} else {
				rd.Locals[p] = 0
			}
		}
		var blocked *freqset.Set
		if cfg.Jammer != nil {
			blocked = cfg.Jammer.Block(rd)
		}

		// Parties register in ascending index order (the active list is
		// sorted), then mask nodes, then jam nodes — every frequency
		// bucket is born sorted, as the resolver requires.
		for _, p := range act.Active() {
			f, tx := strategies[p].Pick(rd.Locals[p], rands[p])
			if f < 1 || f > cfg.F {
				return nil, fmt.Errorf("rendezvous: party %d picked channel %d outside [1..%d] in round %d", p, f, cfg.F, g)
			}
			cur[p] = Action{Freq: f, Transmit: tx}
			if tx {
				res.Transmit(p, f)
			} else {
				res.Listen(p, f)
			}
			out.NodeRounds++
		}
		for m, mn := range masks {
			res.Transmit(maskBase+m, mn.freq)
		}
		if blocked != nil {
			j := jamBase
			for f := 1; f <= cfg.F; f++ {
				if blocked.Contains(f) {
					res.Transmit(j, f)
					j++
				}
			}
		}
		// Dynamic mask slots scan in (party, channel) order, so node
		// indices stay ascending as the buckets require.
		for idx, on := range dynBlocked {
			if on {
				res.Transmit(dynBase+idx, idx%cfg.F+1)
			}
		}

		for _, v := range res.Listeners() {
			from, count := res.Receive(v, cur[v].Freq)
			if count != 1 || from >= k {
				continue // silence, collision, or a bare jam carrier
			}
			out.Meetings++
			if out.FirstMeet == 0 {
				out.FirstMeet = g
			}
			if rv, rf := find(v), find(from); rv != rf {
				parent[rv] = rf
				if comps--; comps == 1 {
					out.AllMet = g
				}
			}
		}
		res.Reset()
		out.Rounds = g
		if out.AllMet != 0 {
			break
		}
		copy(prev, cur)
		rd.Last = prev
	}
	totalNodeRounds.Add(out.NodeRounds)
	return out, nil
}

// applyMaskDeltas patches the game graph for one round of mask churn:
// blocking (p, ch) attaches dyn node dynBase + p·F + ch − 1 to party p,
// unblocking detaches it. Party adjacency stays sorted (dyn nodes are the
// highest indices, laid out in slot order), so the resolver's binary
// searches keep working on the swapped graph. Unblocks apply first so a
// model may retire and re-impose the same slot across rounds.
func applyMaskDeltas(adj [][]int, dynBlocked []bool, block, unblock [][2]int, k, f, dynBase int, g uint64) error {
	for _, pc := range unblock {
		idx, err := maskSlot(pc, k, f, g)
		if err != nil {
			return err
		}
		if !dynBlocked[idx] {
			return fmt.Errorf("rendezvous: round %d unblocks channel %d for party %d, which is not blocked", g, pc[1], pc[0])
		}
		dynBlocked[idx] = false
		node := dynBase + idx
		adj[node] = adj[node][:0]
		adj[pc[0]] = removeSortedInt(adj[pc[0]], node)
	}
	for _, pc := range block {
		idx, err := maskSlot(pc, k, f, g)
		if err != nil {
			return err
		}
		if dynBlocked[idx] {
			return fmt.Errorf("rendezvous: round %d blocks channel %d for party %d twice", g, pc[1], pc[0])
		}
		dynBlocked[idx] = true
		node := dynBase + idx
		adj[node] = append(adj[node][:0], pc[0])
		adj[pc[0]] = insertSortedInt(adj[pc[0]], node)
	}
	return nil
}

// maskSlot validates a (party, channel) pair and returns its dyn slot.
func maskSlot(pc [2]int, k, f int, g uint64) (int, error) {
	if pc[0] < 0 || pc[0] >= k {
		return 0, fmt.Errorf("rendezvous: round %d mask delta names party %d outside [0..%d]", g, pc[0], k-1)
	}
	if pc[1] < 1 || pc[1] > f {
		return 0, fmt.Errorf("rendezvous: round %d mask delta names channel %d outside [1..%d]", g, pc[1], f)
	}
	return pc[0]*f + pc[1] - 1, nil
}

// insertSortedInt inserts x into ascending s, assuming it is absent.
func insertSortedInt(s []int, x int) []int {
	i := len(s)
	for i > 0 && s[i-1] > x {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeSortedInt deletes x from ascending s, assuming it is present.
func removeSortedInt(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			copy(s[i:], s[i+1:])
			return s[:len(s)-1]
		}
	}
	panic(fmt.Sprintf("rendezvous: mask node %d missing from adjacency", x))
}
