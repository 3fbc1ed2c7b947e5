package medium

import (
	"fmt"

	"wsync/internal/freqset"
)

// Graph is the read-only topology view the resolver resolves receptions
// against: an undirected communication graph over dense node indices
// 0..N-1. Adjacency must be symmetric — w ∈ Neighbors(u) exactly when
// u ∈ Neighbors(w) — because the resolver pushes each transmission from
// the transmitter's neighbor list, while the model's reception rule is
// stated from the listener's side; the two agree only on symmetric
// graphs. A nil Graph means the complete graph (the single-hop model):
// every node neighbors every other node.
type Graph interface {
	// N returns the node count.
	N() int
	// Neighbors returns node i's neighbor list. The resolver never
	// mutates the returned slice.
	Neighbors(i int) []int
}

// Activation tracks which nodes are awake. Nodes never deactivate, so the
// active list only ever grows; it is kept in ascending index order, which
// is the iteration order both medium resolvers and the engines' bookkeeping
// loops depend on. Buckets map an activation round to the nodes it wakes,
// so waking a round's nodes costs O(|bucket|), not O(N).
type Activation struct {
	rounds  []uint64
	buckets map[uint64][]int
	active  []int
	scratch []int // spare buffer the out-of-order merge swaps with active
	max     uint64
}

// NewActivation indexes the given per-node activation rounds (as read from
// a schedule). The slice is retained; callers must not mutate it.
func NewActivation(rounds []uint64) *Activation {
	a := &Activation{
		rounds:  rounds,
		buckets: make(map[uint64][]int),
		active:  make([]int, 0, len(rounds)),
		scratch: make([]int, 0, len(rounds)),
	}
	for i, r := range rounds {
		// Range over the slice visits nodes in ascending index order, so
		// each bucket is born sorted.
		a.buckets[r] = append(a.buckets[r], i)
		if r > a.max {
			a.max = r
		}
	}
	return a
}

// Round returns node i's activation round.
func (a *Activation) Round(i int) uint64 { return a.rounds[i] }

// Max returns the latest activation round of any node.
func (a *Activation) Max() uint64 { return a.max }

// Active returns the awake nodes in ascending index order. The slice is
// valid until the next Wake call.
func (a *Activation) Active() []int { return a.active }

// Wake merges round r's activation bucket into the active list and returns
// the bucket (nil if the round wakes nobody) so callers can run their own
// per-node bookkeeping over exactly the newly woken nodes.
func (a *Activation) Wake(r uint64) []int {
	bucket := a.buckets[r]
	if len(bucket) == 0 {
		return nil
	}
	old := a.active
	// Schedules usually activate in index order, so the append fast path
	// covers almost every round; the general merge handles explicit
	// schedules that wake a low index after a high one.
	if len(old) == 0 || old[len(old)-1] < bucket[0] {
		a.active = append(old, bucket...)
		return bucket
	}
	// Merge into the spare buffer and swap it with the active list; both
	// were preallocated at capacity len(rounds), so no round allocates.
	merged := a.scratch[:0]
	i, j := 0, 0
	for i < len(old) && j < len(bucket) {
		if old[i] < bucket[j] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, bucket[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, bucket[j:]...)
	a.active, a.scratch = merged, old[:0]
	return bucket
}

// Resolver indexes one round of radio activity by frequency: per-frequency
// transmitter counts (and, on a graph, transmitter buckets) and a listener
// list, built from one pass over the awake nodes, with only the
// frequencies actually touched this round classified and re-zeroed.
// Per-round cost is O(active · log active) on the complete graph,
// independent of F and N; on a graph it adds the degrees of the
// transmitters on frequencies somebody listens on.
//
// Usage per round: Transmit/Listen for every awake node, then
// TouchedAscending and Receive to classify, then Reset. The zero frequency
// is reserved (frequencies are 1-based).
type Resolver struct {
	f     int
	n     int
	graph Graph

	txCount   []int // per frequency: transmitter count
	txLast    []int // per frequency: the most recently registered transmitter, -1 if none
	txNodes   [][]int
	touched   []int
	listeners []int

	// slots[i] is node i's reception state: the frequency it listens on
	// this round (0 when transmitting or asleep) and, once the round is
	// pushed, how many of its neighbors transmitted there and the last of
	// them. Only graph mode reads it.
	slots    []slot
	listened []bool // per frequency, during push: somebody listens on it
	pushed   bool   // this round's transmissions have been pushed
}

// slot is one node's per-round reception state in graph mode.
type slot struct {
	freq, hits, from int32
}

// NewResolver builds a resolver for frequencies 1..f over n nodes. A nil
// graph selects the complete-graph (single-hop) fast path, which never
// materializes transmitter buckets.
func NewResolver(f int, n int, graph Graph) *Resolver {
	r := &Resolver{
		f:        f,
		n:        n,
		graph:    graph,
		txCount:  make([]int, f+1),
		txLast:   make([]int, f+1),
		slots:    make([]slot, n),
		listened: make([]bool, f+1),
	}
	for i := range r.txLast {
		r.txLast[i] = -1
	}
	if graph != nil {
		r.txNodes = make([][]int, f+1)
	}
	return r
}

// Transmit registers node i as transmitting on frequency f this round.
// Nodes must be registered in ascending index order (iterate the active
// list), so each frequency's bucket is born sorted.
func (r *Resolver) Transmit(i, f int) {
	if r.txCount[f] == 0 {
		r.touched = append(r.touched, f)
	}
	r.txCount[f]++
	r.txLast[f] = i
	if r.graph != nil {
		r.txNodes[f] = append(r.txNodes[f], i)
	}
}

// Listen registers node i as listening on frequency f this round. Like
// Transmit, calls must come in ascending index order.
func (r *Resolver) Listen(i, f int) {
	r.listeners = append(r.listeners, i)
	// Unconditional: the complete graph never reads it, and a branch here
	// costs more than the store on the dense path.
	r.slots[i].freq = int32(f)
}

// Listeners returns this round's listeners in registration (ascending
// node) order. Valid until Reset.
func (r *Resolver) Listeners() []int { return r.listeners }

// TouchedAscending returns the frequencies at least one node transmitted
// on this round, in ascending order — matching the legacy scan resolvers'
// [1..F] sweep order bit for bit. Valid until Reset.
//
// Sparse rounds (few distinct frequencies) insertion-sort the touched list
// in place; dense rounds batch the pass instead, rebuilding the list by a
// single branch-predictable sweep of the count array, which is cheaper
// than comparison sorting once a meaningful fraction of the band is in
// play. Both paths are allocation-free and produce the identical list.
func (r *Resolver) TouchedAscending() []int {
	m := len(r.touched)
	if m < 2 {
		return r.touched
	}
	if m >= r.f/8 {
		// Dense: r.touched holds exactly the frequencies with a nonzero
		// count, so sweeping [1..F] for nonzero counts rebuilds the same
		// set already ordered.
		r.touched = r.touched[:0]
		for f := 1; f <= r.f; f++ {
			if r.txCount[f] != 0 {
				r.touched = append(r.touched, f)
			}
		}
		return r.touched
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && r.touched[j-1] > r.touched[j]; j-- {
			r.touched[j-1], r.touched[j] = r.touched[j], r.touched[j-1]
		}
	}
	return r.touched
}

// Count returns the number of transmitters on frequency f this round.
func (r *Resolver) Count(f int) int { return r.txCount[f] }

// From returns the transmitter on frequency f, or -1 if nobody transmits
// on it; meaningful when Count(f) is exactly 1.
func (r *Resolver) From(f int) int { return r.txLast[f] }

// b2i converts a predicate to 0/1; the compiler lowers it to SETcc, so the
// classify loop below carries no data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ClassifyTouched classifies every frequency at least one node transmitted
// on this round, in ascending order, into exactly one of three outcomes:
// collision (two or more transmitters), jammed (a single transmitter on a
// frequency in disrupted), or clear (a single undisrupted transmitter).
// Clear frequencies are appended to dst, which is returned alongside the
// collision and jammed counts.
//
// The classification is the branch-free equivalent of the per-frequency
// switch the engines historically ran: each outcome is a packed 0/1
// predicate, and the clear list is maintained by appending unconditionally
// and retracting the slot when either predicate fired. Only the
// TouchedAscending ordering pass has data-dependent control flow.
func (r *Resolver) ClassifyTouched(disrupted *freqset.Set, dst []int) (clear []int, collisions, jammed int) {
	for _, f := range r.TouchedAscending() {
		multi := b2i(r.txCount[f] >= 2)
		dis := b2i(disrupted.Contains(f)) &^ multi
		collisions += multi
		jammed += dis
		dst = append(dst, f)
		dst = dst[:len(dst)-multi-dis]
	}
	return dst, collisions, jammed
}

// Receive resolves what listener u hears on frequency f: the number of
// transmitters in u's neighborhood on f, and one of them (the unique one
// when count is 1, -1 when count is 0). The count saturates at 2 — callers
// only distinguish silence, a clean reception, and a collision.
//
// Receive is valid only after every Transmit and Listen of the round, and
// f must be the frequency u registered with Listen. With a nil graph every
// transmitter is a neighbor and the answer is the global per-frequency
// count. With a graph, the round's first Receive pushes every transmission
// to the transmitter's listening neighbors, and each call reads u's tally.
func (r *Resolver) Receive(u, f int) (from, count int) {
	if r.graph == nil {
		count = r.txCount[f]
		if count > 2 {
			count = 2
		}
		return r.txLast[f], count
	}
	if !r.pushed {
		r.push()
	}
	s := r.slots[u]
	if s.hits == 0 {
		return -1, 0
	}
	return int(s.from), min(int(s.hits), 2)
}

// push resolves the round from the transmitter side: for every frequency
// somebody listens on, each transmitter on it walks its own neighbor list
// and tallies itself at every neighbor listening there. On a symmetric
// graph this counts, for each listener u, exactly the transmitters in u's
// neighborhood.
func (r *Resolver) push() {
	r.pushed = true
	for _, u := range r.listeners {
		r.listened[r.slots[u].freq] = true
	}
	for _, f := range r.touched {
		if !r.listened[f] {
			continue
		}
		f32 := int32(f)
		for _, w := range r.txNodes[f] {
			w32 := int32(w)
			for _, v := range r.graph.Neighbors(w) {
				// Branch-free: whether a neighbor listens on f is a coin
				// flip the predictor cannot learn.
				s := &r.slots[v]
				hit := int32(b2i(s.freq == f32))
				s.hits += hit
				s.from ^= (s.from ^ w32) & -hit
			}
		}
	}
	for _, u := range r.listeners {
		r.listened[r.slots[u].freq] = false
	}
}

// SetGraph swaps the topology the resolver resolves against — the
// dynamic-topology hook: engines that churn edges between rounds swap in
// the new Graph here instead of rebuilding the resolver (which would
// reallocate every per-frequency bucket). Any transmit or listen state
// registered under the old graph is invalidated, exactly as if Reset had
// run, so a mid-round swap can never leak one topology's registrations
// into another's receptions. A nil graph switches to the complete-graph
// fast path; per-node state grows as needed if the new graph covers more
// nodes than the resolver was built for.
//
// The node universe only ever grows: swapping in a graph with fewer nodes
// than the resolver currently covers panics. Nodes at or above the new
// graph's count may already be registered (or active in the caller's
// bookkeeping), and resolving them would index past the new adjacency —
// shrinking silently was a latent out-of-range read. Callers that truly
// want a smaller universe build a fresh resolver.
func (r *Resolver) SetGraph(g Graph) {
	if g != nil && g.N() < r.n {
		panic(fmt.Sprintf("medium: SetGraph shrinks the node universe from %d to %d; build a new resolver instead",
			r.n, g.N()))
	}
	// Reset while the old graph is still installed: it decides which
	// per-node state this round dirtied.
	wasComplete := r.graph == nil
	r.Reset()
	r.graph = g
	if g == nil {
		return
	}
	if n := g.N(); n > r.n {
		r.n = n
	}
	if r.txNodes == nil {
		r.txNodes = make([][]int, r.f+1)
	}
	// Graph rounds need every slot clear at the start; complete-graph
	// rounds leave their listen frequencies behind.
	switch {
	case len(r.slots) < r.n:
		r.slots = make([]slot, r.n)
	case wasComplete:
		clear(r.slots)
	}
}

// Reset re-zeroes only what this round dirtied, preparing the resolver for
// the next round in O(touched + listeners). The complete graph leaves the
// listeners' slots as they are: nothing reads them until SetGraph installs
// a graph, which clears them all.
func (r *Resolver) Reset() {
	for _, f := range r.touched {
		r.txCount[f] = 0
		r.txLast[f] = -1
		if r.graph != nil {
			r.txNodes[f] = r.txNodes[f][:0]
		}
	}
	if r.graph != nil {
		for _, u := range r.listeners {
			r.slots[u] = slot{}
		}
	}
	r.touched = r.touched[:0]
	r.listeners = r.listeners[:0]
	r.pushed = false
}
