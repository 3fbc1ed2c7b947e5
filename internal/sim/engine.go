package sim

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// totalNodeRounds accumulates active node-rounds over every completed run
// in this process. The benchmark module (bench/) is its only reader:
// report entries take node_rounds from each experiment's own meter
// (harness.Experiment.RunMetered), which counts the same runs.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of active node-rounds
// executed by completed Run calls, which may run on many goroutines at
// once (parallel trials). Graph runs (RunGraph) are not included; a
// driver over the core keeps its own count, if any. The count is
// deterministic for a deterministic workload: it never depends on
// scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// engine is the one round core behind every driver: Run on the complete
// graph, and RunGraph (the multihop, rendezvous and unslotted drivers) on
// an explicit communication graph. It runs serially on the calling
// goroutine; parallelism lives one level up, across independent trials
// (internal/pool).
type engine struct {
	cfg *Config
	n   int

	agents     []Agent    // nil until activation
	activation []uint64   // per node
	agentRNG   []rng.Rand // one contiguous slab, pre-split at build

	// batch groups awake nodes into same-constructor cohorts (BatchAgent);
	// the serial round loop steps each cohort with one devirtualized
	// StepBatch call and falls back to per-node Step for the rest.
	batch *batchCohorts

	// Per-node action state in struct-of-arrays layout: the medium
	// resolver's classification loop touches only the packed frequency and
	// transmit-flag arrays (5 bytes per node instead of a ~100-byte Action
	// with its embedded message), and the message payload is copied only
	// for transmitters — a stale actMsg entry is never read, because
	// delivery resolution consults it only for nodes with actTx set this
	// round.
	actFreq []int32       // per node: this round's frequency choice
	actTx   []bool        // per node: transmitting (vs listening) this round
	actMsg  []msg.Message // per node: payload, valid only for transmitters

	// outs[i] is node i's output this round: stored by the step pass
	// right after stepping the node, and re-read after Deliver only for
	// the nodes that received. Inactive nodes keep the zero (⊥) Output.
	// Round records alias it as RoundRecord.Outputs.
	outs []Output

	// act tracks activation buckets and the sorted awake list; med is the
	// shared frequency-indexed resolver (internal/medium). Together they
	// make per-round activation and medium resolution cost O(awake), not
	// O(F + N).
	act *medium.Activation
	med *medium.Resolver

	// graph is the communication graph this round resolves on; nil is the
	// complete graph (the single-hop model). graphAt, when set, supplies
	// each round's graph before activation — the dynamic-topology hook.
	graph   medium.Graph
	graphAt func(r uint64) medium.Graph

	// listenJam is the adversary's per-listener hook, consulted only on
	// a graph; nil unless the adversary is a ListenerDisrupter.
	listenJam ListenerDisrupter

	// pending delivery per node for the current round; pendingList names
	// the nodes that received one, in ascending order. A stale pending
	// entry is never read: deliver reads only the nodes on pendingList.
	pending     []msg.Message
	pendingList []int

	emptySet *freqset.Set

	hist History
	rec  RoundRecord
	res  Result

	// record gates building rec's actions and deliveries and handing it
	// out as History.Last. It is set iff observers are attached or the
	// adversary is non-nil and not HistoryBlind, on either topology, so
	// other runs pay only dead branch checks.
	record bool

	syncedCount int
}

func newEngine(cfg *Config, graph medium.Graph) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Schedule.N()
	_, blind := cfg.Adversary.(HistoryBlind)
	listenJam, _ := cfg.Adversary.(ListenerDisrupter)
	if listenJam != nil && graph == nil {
		return nil, errors.New("sim: a ListenerDisrupter adversary needs RunGraph")
	}
	e := &engine{
		cfg:        cfg,
		n:          n,
		agents:     make([]Agent, n),
		activation: make([]uint64, n),
		agentRNG:   make([]rng.Rand, n),
		actFreq:    make([]int32, n),
		actTx:      make([]bool, n),
		actMsg:     make([]msg.Message, n),
		outs:       make([]Output, n),
		pending:    make([]msg.Message, n),
		emptySet:   freqset.New(cfg.F),
		batch:      newBatchCohorts(n, cfg.NoBatch),
		graph:      graph,
		listenJam:  listenJam,
		record:     len(cfg.Observers) > 0 || (cfg.Adversary != nil && !blind),
	}
	master := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		e.activation[i] = cfg.Schedule.ActivationRound(i)
		master.SplitInto(uint64(i), &e.agentRNG[i])
	}
	e.act = medium.NewActivation(e.activation)
	e.med = medium.NewResolver(cfg.F, n, graph)
	e.hist = History{
		F:         cfg.F,
		Activated: make([]uint64, n),
		Received:  make([]bool, n),
	}
	e.rec = RoundRecord{Disrupted: e.emptySet, Clear: make([]int, 0, 4)}
	if e.record {
		e.rec.Actions = make([]ActionRecord, 0, n)
		e.rec.Deliveries = make([]Delivery, 0, n)
		e.rec.Outputs = e.outs
	}
	if cfg.ProbeWeights {
		e.rec.Weights = make([]float64, n)
	}
	e.res = Result{
		SyncRound: make([]uint64, n),
		Activated: make([]uint64, n),
	}
	copy(e.res.Activated, e.activation)
	return e, nil
}

// activateRound brings up any nodes scheduled for round r, in ascending
// node order.
func (e *engine) activateRound(r uint64) {
	for _, i := range e.act.Wake(r) {
		e.hist.Activated[i] = r
		a := e.cfg.NewAgent(NodeID(i), r, &e.agentRNG[i])
		e.agents[i] = a
		e.batch.Add(i, a)
	}
}

// resolve applies the medium semantics for round r given the action state
// of all active nodes, filling e.rec and the pending delivery buffers.
// disrupted is the adversary's validated set. One pass over the awake
// nodes feeds the shared frequency-indexed resolver (internal/medium). On
// the complete graph only the frequencies actually touched this round are
// classified and re-zeroed, at O(active · log active) per round (the log
// is the touched-frequency sort that keeps Clear ascending) — independent
// of F and N. On a graph the resolver pushes each transmission to the
// transmitter's listening neighbors, and each listener reads its own
// tally. internal/simtest checks both against the brute-force rule.
func (e *engine) resolve(r uint64, disrupted *freqset.Set) {
	rec := &e.rec
	rec.Round = r
	rec.Disrupted = disrupted
	rec.Actions = rec.Actions[:0]
	rec.Deliveries = rec.Deliveries[:0]
	rec.Clear = rec.Clear[:0]

	e.pendingList = e.pendingList[:0]
	e.res.Stats.NodeRounds += uint64(len(e.act.Active()))

	med := e.med
	fMax, record := e.cfg.F, e.record
	var transmissions uint64
	for _, i := range e.act.Active() {
		f, tx := int(e.actFreq[i]), e.actTx[i]
		if f < 1 || f > fMax {
			e.badFreq(i, f)
		}
		if record {
			rec.Actions = append(rec.Actions, ActionRecord{Node: NodeID(i), Freq: f, Transmit: tx})
		}
		if tx {
			med.Transmit(i, f)
			transmissions++
		} else {
			med.Listen(i, f)
		}
	}
	e.res.Stats.Transmissions += transmissions

	if e.graph != nil {
		// Collisions count per receiver: two transmitting neighbors collide
		// at a listener even if they cannot hear each other.
		for _, i := range med.Listeners() {
			f := int(e.actFreq[i])
			switch from, count := med.Receive(i, f); {
			case count == 0:
			case count >= 2:
				e.res.Stats.Collisions++
			case disrupted.Contains(f), e.listenJam != nil && e.listenJam.DisruptedAt(NodeID(i), f):
				// jammed: nothing heard
			default:
				e.queueDelivery(i, f, NodeID(from))
			}
		}
		med.Reset()
		return
	}

	// Classify the touched frequencies in ascending order. The
	// branch-free classify appends clear frequencies to rec.Clear (which
	// is [:0] at entry).
	var nCol, nJam int
	rec.Clear, nCol, nJam = med.ClassifyTouched(disrupted, rec.Clear)
	e.res.Stats.Collisions += uint64(nCol)
	e.res.Stats.DisruptedLosses += uint64(nJam)
	e.res.Stats.ClearBroadcasts += uint64(len(rec.Clear))
	if e.res.FirstClear == 0 && len(rec.Clear) > 0 {
		e.res.FirstClear = r
		e.hist.EverClear = true
		e.hist.FirstClear = r
	}

	// Queue deliveries to listeners on clear single-transmitter channels;
	// listeners were collected in ascending node order.
	for _, i := range med.Listeners() {
		f := int(e.actFreq[i])
		if med.Count(f) == 1 && !disrupted.Contains(f) {
			e.queueDelivery(i, f, NodeID(med.From(f)))
		}
	}

	med.Reset()
}

// badFreq flags a protocol choosing an out-of-range frequency: a bug in
// the protocol, surfaced loudly.
func (e *engine) badFreq(i int, freq int) {
	panic(fmt.Sprintf("sim: node %d chose frequency %d outside [1..%d]", i, freq, e.cfg.F))
}

// queueDelivery records the successful reception of frequency f's lone
// transmission (by node from) at listener i.
func (e *engine) queueDelivery(i int, f int, from NodeID) {
	e.pending[i] = e.deliverable(from)
	e.pendingList = append(e.pendingList, i)
	e.hist.Received[i] = true
	if e.record {
		e.rec.Deliveries = append(e.rec.Deliveries, Delivery{From: from, To: NodeID(i), Freq: f})
	}
	e.res.Stats.Deliveries++
}

// deliverable returns the message node `from` transmitted this round,
// optionally forced through the wire codec.
func (e *engine) deliverable(from NodeID) msg.Message {
	if e.cfg.WireFidelity {
		return wireRoundTrip(from, e.actMsg[from])
	}
	return e.actMsg[from]
}

// wireRoundTrip forces node from's message m through the binary codec.
func wireRoundTrip(from NodeID, m msg.Message) msg.Message {
	data, err := msg.Encode(m)
	if err != nil {
		panic(fmt.Sprintf("sim: node %d transmitted unencodable message: %v", from, err))
	}
	decoded, err := msg.Decode(data)
	if err != nil {
		panic(fmt.Sprintf("sim: wire round-trip failed for node %d: %v", from, err))
	}
	return decoded
}

// recordOutputs updates sync bookkeeping from this round's outputs, which
// the step and deliver passes left in e.outs (also the record's Outputs).
func (e *engine) recordOutputs(r uint64) {
	outs, syncRound := e.outs, e.res.SyncRound
	for _, i := range e.act.Active() {
		if outs[i].Synced && syncRound[i] == 0 {
			syncRound[i] = r
			e.syncedCount++
		}
	}
}

// observeAndCheckStop runs observers and reports whether the run should
// stop after round r.
func (e *engine) observeAndCheckStop(r uint64) bool {
	e.res.Stats.Rounds = r
	e.hist.Completed = r
	if e.record {
		e.hist.Last = &e.rec
	}
	for _, ob := range e.cfg.Observers {
		ob.ObserveRound(&e.rec)
	}
	if e.cfg.StopWhen != nil && e.cfg.StopWhen(&e.hist) {
		return true
	}
	if e.cfg.RunToMaxRounds {
		return false
	}
	// Every node synchronized implies every node activated.
	return e.syncedCount == e.n
}

// probeWeight records node i's pre-Step broadcast probability when weight
// probing is enabled.
func (e *engine) probeWeight(i int) {
	if e.rec.Weights == nil {
		return
	}
	e.rec.Weights[i] = 0
	if bp, ok := e.agents[i].(BroadcastProber); ok {
		e.rec.Weights[i] = bp.BroadcastProb()
	}
}

// disruptedSet obtains and validates the adversary's choice for round r.
func (e *engine) disruptedSet(r uint64) *freqset.Set {
	if e.cfg.Adversary == nil {
		return e.emptySet
	}
	s := e.cfg.Adversary.Disrupt(r, &e.hist)
	if s == nil {
		return e.emptySet
	}
	if s.Len() > e.cfg.T {
		panic(fmt.Sprintf("sim: adversary disrupted %d frequencies, budget is %d", s.Len(), e.cfg.T))
	}
	return s
}

// finalize fills the summary fields of the result.
func (e *engine) finalize(hitMax bool) *Result {
	e.res.HitMaxRounds = hitMax
	e.res.AllSynced = e.syncedCount == e.n
	for i := 0; i < e.n; i++ {
		if e.res.SyncRound[i] != 0 {
			local := e.res.SyncRound[i] - e.activation[i] + 1
			if local > e.res.MaxSyncLocal {
				e.res.MaxSyncLocal = local
			}
		}
		if lr, ok := e.agents[i].(LeaderReporter); ok && lr.IsLeader() {
			e.res.Leaders++
		}
	}
	return &e.res
}

// stepAgent advances node i for global round r and stores its choice in
// the struct-of-arrays action state, and its post-Step output in e.outs.
// The message payload is copied only for transmitters; listeners' stale
// entries are never read.
func (e *engine) stepAgent(i int, r uint64) {
	ag := e.agents[i]
	a := ag.Step(r - e.activation[i] + 1)
	e.actFreq[i] = int32(a.Freq)
	e.actTx[i] = a.Transmit
	if a.Transmit {
		e.actMsg[i] = a.Msg
	}
	e.outs[i] = ag.Output()
}

// step advances every awake node for round r: batched cohorts first, then
// the per-node fallback.
func (e *engine) step(r uint64) {
	if e.rec.Weights != nil {
		for _, i := range e.act.Active() {
			e.probeWeight(i)
		}
	}
	e.batch.StepBatches(r, e.activation, e.actFreq, e.actTx, e.actMsg, e.outs)
	for _, i := range e.batch.Solo() {
		e.stepAgent(i, r)
	}
}

// deliver hands this round's receptions to their listeners and re-reads
// each receiver's output. Every other node's output is the one its step
// stored.
func (e *engine) deliver() {
	for _, i := range e.pendingList {
		a := e.agents[i]
		a.Deliver(e.pending[i])
		e.outs[i] = a.Output()
	}
}

// runRound executes round r end to end and reports whether the run should
// stop. After warm-up (all nodes awake, every reused buffer at its
// high-water capacity) a round performs zero heap allocations;
// TestSteadyStateAllocs pins this.
func (e *engine) runRound(r uint64) (stop bool) {
	if e.graphAt != nil {
		e.graph = e.graphAt(r)
		e.med.SetGraph(e.graph)
	}
	e.activateRound(r)
	disrupted := e.disruptedSet(r)
	e.step(r)
	e.resolve(r, disrupted)
	e.deliver()
	e.recordOutputs(r)
	return e.observeAndCheckStop(r)
}

// run builds the core over graph (nil: the complete graph) and executes
// rounds until the stop rule fires or the round limit is reached.
func run(cfg *Config, graph medium.Graph, graphAt func(r uint64) medium.Graph) (*Result, error) {
	e, err := newEngine(cfg, graph)
	if err != nil {
		return nil, err
	}
	e.graphAt = graphAt
	limit := cfg.MaxRounds
	if limit == 0 {
		limit = DefaultMaxRounds
	}
	for r := uint64(1); r <= limit; r++ {
		if e.runRound(r) {
			return e.finalize(false), nil
		}
	}
	return e.finalize(true), nil
}

// countNodeRounds adds a completed single-hop run to TotalNodeRounds.
func countNodeRounds(res *Result, err error) (*Result, error) {
	if err == nil {
		totalNodeRounds.Add(res.Stats.NodeRounds)
	}
	return res, err
}

// Run executes the simulation on the calling goroutine and returns its
// result. It returns an error only for invalid configurations; model
// violations by protocols or adversaries (out-of-range frequencies,
// over-budget disruption) panic, as they are programming errors.
func Run(cfg *Config) (*Result, error) { return countNodeRounds(run(cfg, nil, nil)) }

// Clique is the complete graph over its nodes with every neighbor list
// explicit. RunGraph on a Clique delivers what Run delivers on the same
// Config, but on the graph path: it consults a ListenerDisrupter, and the
// run adds nothing to TotalNodeRounds.
type Clique [][]int

// NewClique returns the complete graph over n nodes.
func NewClique(n int) Clique {
	c := make(Clique, n)
	for i := range c {
		c[i] = make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				c[i] = append(c[i], j)
			}
		}
	}
	return c
}

// N returns the node count.
func (c Clique) N() int { return len(c) }

// Neighbors returns every node but i, in ascending order.
func (c Clique) Neighbors(i int) []int { return c[i] }

// RunGraph executes Run's round loop on communication graph g instead of
// the complete graph: a listener on frequency f receives iff exactly one
// of its neighbors in g transmits on f, f is not disrupted, and a
// ListenerDisrupter adversary does not disrupt f for that listener. It is
// the entry point of the three drivers over the core: multihop, and, on a
// Clique, rendezvous over its parties and unslotted over half-slots.
// graphAt, if non-nil, returns each round's graph before its
// activations; it must not return nil, and may return g itself mutated
// in place.
//
// Stats.Collisions counts (receiver, round) pairs with two or more
// transmitting neighbors; FirstClear, Clear, DisruptedLosses, and
// ClearBroadcasts stay zero. Round records and History.Last follow the
// same rule as Run's (see HistoryBlind), and TotalNodeRounds is not
// updated: a driver keeps its own count, if any.
func RunGraph(cfg *Config, g medium.Graph, graphAt func(r uint64) medium.Graph) (*Result, error) {
	switch {
	case g == nil:
		return nil, errors.New("sim: RunGraph needs a graph")
	case cfg.Schedule != nil && g.N() != cfg.Schedule.N():
		return nil, fmt.Errorf("sim: graph has %d nodes, schedule covers %d", g.N(), cfg.Schedule.N())
	}
	return run(cfg, g, graphAt)
}
