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
// in this process. It exists for throughput accounting: wexp samples
// TotalNodeRounds around each experiment to derive the node-rounds/s
// figure recorded in the wsync-bench/v1 report.
var totalNodeRounds atomic.Uint64

// TotalNodeRounds returns the process-wide count of active node-rounds
// executed by completed Run and RunConcurrent calls. Graph runs (RunGraph)
// are not included; their drivers keep their own count. The count is
// deterministic for a deterministic workload: it never depends on
// scheduling or parallelism.
func TotalNodeRounds() uint64 { return totalNodeRounds.Load() }

// engine is the one round core behind every driver: Run and RunConcurrent
// on the complete graph, and RunGraph (multihop's drivers) on an explicit
// communication graph. The serial and concurrent forms differ only in how
// per-node activation, Step, and Deliver calls are dispatched; resolution
// of the medium is identical and order-independent.
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
	// resolvers' classification loops touch only the packed frequency and
	// transmit-flag arrays (5 bytes per node instead of a ~100-byte Action
	// with its embedded message), and the message payload is copied only
	// for transmitters — a stale actMsg entry is never read, because
	// delivery resolution consults it only for nodes with actTx set this
	// round.
	actFreq []int32       // per node: this round's frequency choice
	actTx   []bool        // per node: transmitting (vs listening) this round
	actMsg  []msg.Message // per node: payload, valid only for transmitters
	active  []bool        // per node

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

	// pending delivery per node for the current round; pendingList names
	// the nodes with hasPending set, in ascending order.
	pending     []msg.Message
	hasPending  []bool
	pendingList []int

	// per-frequency scratch (index 1..F) used only by the legacy scan
	// resolver, which sweeps all of [1..F] every round; the indexed path
	// keeps its frequency state inside med. Allocated lazily on the first
	// scan round, so the default indexed path pays no O(F) setup memory.
	txCount []int
	txFrom  []NodeID

	emptySet *freqset.Set

	hist History
	rec  RoundRecord
	res  Result

	// record gates building rec's actions, deliveries, and outputs. It is
	// always set on the complete graph, where History.Last hands the
	// record to adversaries, and on a graph only when observers are
	// present, so unobserved graph runs pay only dead branch checks.
	record bool

	// workers runs the per-node halves of each round on goroutines; nil on
	// the serial path.
	workers *workerPool

	syncedCount int
}

func newEngine(cfg *Config, graph medium.Graph) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Schedule.N()
	e := &engine{
		cfg:        cfg,
		n:          n,
		agents:     make([]Agent, n),
		activation: make([]uint64, n),
		agentRNG:   make([]rng.Rand, n),
		actFreq:    make([]int32, n),
		actTx:      make([]bool, n),
		actMsg:     make([]msg.Message, n),
		active:     make([]bool, n),
		pending:    make([]msg.Message, n),
		hasPending: make([]bool, n),
		emptySet:   freqset.New(cfg.F),
		batch:      newBatchCohorts(n, cfg.NoBatch),
		graph:      graph,
		record:     graph == nil || len(cfg.Observers) > 0,
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
	if e.record {
		e.rec = RoundRecord{
			Disrupted:  e.emptySet,
			Actions:    make([]ActionRecord, 0, n),
			Deliveries: make([]Delivery, 0, n),
			Clear:      make([]int, 0, 4),
			Outputs:    make([]Output, n),
		}
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

// activateRound brings up any nodes scheduled for round r. On the
// concurrent path it does only the bookkeeping; the workers construct
// their own nodes' agents and flip their active flags.
func (e *engine) activateRound(r uint64) {
	for _, i := range e.act.Wake(r) {
		e.hist.Activated[i] = r
		if e.workers == nil {
			e.active[i] = true
			a := e.cfg.NewAgent(NodeID(i), r, &e.agentRNG[i])
			e.agents[i] = a
			e.batch.Add(i, a)
		}
	}
}

// resolve applies the medium semantics for round r given the action state
// of all active nodes, filling e.rec and the pending delivery buffers.
// disrupted is the adversary's validated set. The two implementations are
// bit-identical in every observable (records, stats, delivery order); see
// MediumPath.
func (e *engine) resolve(r uint64, disrupted *freqset.Set) {
	rec := &e.rec
	rec.Round = r
	rec.Disrupted = disrupted
	rec.Actions = rec.Actions[:0]
	rec.Deliveries = rec.Deliveries[:0]
	rec.Clear = rec.Clear[:0]

	// Only nodes on pendingList can have hasPending set, so clearing them
	// is equivalent to the legacy full sweep over all N.
	for _, i := range e.pendingList {
		e.hasPending[i] = false
	}
	e.pendingList = e.pendingList[:0]
	e.res.Stats.NodeRounds += uint64(len(e.act.Active()))

	if e.cfg.Medium == MediumScan {
		e.resolveScan(r, disrupted)
	} else {
		e.resolveIndexed(r, disrupted)
	}

	if e.res.FirstClear != 0 && !e.hist.EverClear {
		e.hist.EverClear = true
		e.hist.FirstClear = e.res.FirstClear
	}
}

// badFreq flags a protocol choosing an out-of-range frequency: a bug in
// the protocol, surfaced loudly.
func (e *engine) badFreq(i int, freq int) {
	panic(fmt.Sprintf("sim: node %d chose frequency %d outside [1..%d]", i, freq, e.cfg.F))
}

// resolveScan is the legacy medium resolver: every round it zeroes and
// classifies all F frequency slots and walks all N schedule slots twice
// (on a graph, each listener walks its whole neighbor list). It is kept
// verbatim as the differential-testing oracle for the indexed path.
func (e *engine) resolveScan(r uint64, disrupted *freqset.Set) {
	rec := &e.rec
	if e.txCount == nil {
		e.txCount = make([]int, e.cfg.F+1)
		e.txFrom = make([]NodeID, e.cfg.F+1)
	}
	for f := 1; f <= e.cfg.F; f++ {
		e.txCount[f] = 0
	}
	for i := 0; i < e.n; i++ {
		if !e.active[i] {
			continue
		}
		f, tx := int(e.actFreq[i]), e.actTx[i]
		if f < 1 || f > e.cfg.F {
			e.badFreq(i, f)
		}
		if e.record {
			rec.Actions = append(rec.Actions, ActionRecord{Node: NodeID(i), Freq: f, Transmit: tx})
		}
		if tx {
			e.txCount[f]++
			e.txFrom[f] = NodeID(i)
			e.res.Stats.Transmissions++
		}
	}

	if e.graph != nil {
		for i := 0; i < e.n; i++ {
			if !e.active[i] || e.actTx[i] {
				continue
			}
			f := int(e.actFreq[i])
			from, count := -1, 0
			for _, w := range e.graph.Neighbors(i) {
				if e.active[w] && e.actTx[w] && int(e.actFreq[w]) == f {
					count++
					from = w
				}
			}
			switch {
			case count == 0:
			case count >= 2:
				e.res.Stats.Collisions++
			case disrupted.Contains(f):
				// jammed: nothing heard
			default:
				e.queueDelivery(i, f, NodeID(from))
			}
		}
		return
	}

	// Classify frequencies and queue deliveries.
	for f := 1; f <= e.cfg.F; f++ {
		switch {
		case e.txCount[f] == 0:
		case e.txCount[f] >= 2:
			e.res.Stats.Collisions++
		case disrupted.Contains(f):
			e.res.Stats.DisruptedLosses++
		default:
			rec.Clear = append(rec.Clear, f)
			e.res.Stats.ClearBroadcasts++
			if e.res.FirstClear == 0 {
				e.res.FirstClear = r
			}
		}
	}

	// Queue deliveries to listeners on clear single-transmitter channels.
	for i := 0; i < e.n; i++ {
		if !e.active[i] || e.actTx[i] {
			continue
		}
		f := int(e.actFreq[i])
		if e.txCount[f] == 1 && !disrupted.Contains(f) {
			e.queueDelivery(i, f, e.txFrom[f])
		}
	}
}

// resolveIndexed is the frequency-indexed fast path: one pass over the
// awake nodes feeds the shared resolver (internal/medium). On the complete
// graph only the frequencies actually touched this round are classified
// and re-zeroed, at O(active · log active) per round (the log is the
// touched-frequency sort that preserves the scan path's ascending Clear
// order) — independent of F and N. On a graph each listener's reception
// is resolved by intersecting its frequency's transmitter bucket with its
// neighborhood.
func (e *engine) resolveIndexed(r uint64, disrupted *freqset.Set) {
	rec := &e.rec
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
			med.Listen(i)
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
			case disrupted.Contains(f):
				// jammed: nothing heard
			default:
				e.queueDelivery(i, f, NodeID(from))
			}
		}
		med.Reset()
		return
	}

	// Classify the touched frequencies in ascending order, matching the
	// scan path's [1..F] sweep bit for bit. The branch-free classify
	// appends clear frequencies to rec.Clear (which is [:0] at entry).
	var nCol, nJam int
	rec.Clear, nCol, nJam = med.ClassifyTouched(disrupted, rec.Clear)
	e.res.Stats.Collisions += uint64(nCol)
	e.res.Stats.DisruptedLosses += uint64(nJam)
	e.res.Stats.ClearBroadcasts += uint64(len(rec.Clear))
	if e.res.FirstClear == 0 && len(rec.Clear) > 0 {
		e.res.FirstClear = r
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

// queueDelivery records the successful reception of frequency f's lone
// transmission (by node from) at listener i.
func (e *engine) queueDelivery(i int, f int, from NodeID) {
	e.pending[i] = e.deliverable(from)
	e.hasPending[i] = true
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

// recordOutputs stores post-round outputs and updates sync bookkeeping.
// Inactive nodes' entries stay the zero Output they were allocated with
// (nodes never deactivate), so only awake nodes need visiting; without a
// record to fill, synchronized nodes need no visit either.
func (e *engine) recordOutputs(r uint64) {
	record, syncRound := e.record, e.res.SyncRound
	var collected []Output // the workers' outputs on the concurrent path
	if e.workers != nil {
		collected = e.workers.outs
	}
	for _, i := range e.act.Active() {
		if !record && syncRound[i] != 0 {
			continue
		}
		var out Output
		if collected != nil {
			out = collected[i]
		} else {
			out = e.agents[i].Output()
		}
		if record {
			e.rec.Outputs[i] = out
		}
		if out.Synced && syncRound[i] == 0 {
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
	if e.graph == nil {
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
// the struct-of-arrays action state. The message payload is copied only
// for transmitters; listeners' stale entries are never read.
func (e *engine) stepAgent(i int, r uint64) {
	a := e.agents[i].Step(r - e.activation[i] + 1)
	e.actFreq[i] = int32(a.Freq)
	e.actTx[i] = a.Transmit
	if a.Transmit {
		e.actMsg[i] = a.Msg
	}
}

// step advances every awake node for round r: batched cohorts first, then
// the per-node fallback — or, on the concurrent path, everything behind
// the workers' step barrier.
func (e *engine) step(r uint64) {
	if e.workers != nil {
		e.workers.barrier(workerCmd{round: r})
		return
	}
	if e.rec.Weights != nil {
		for _, i := range e.act.Active() {
			e.probeWeight(i)
		}
	}
	e.batch.StepBatches(r, e.activation, e.actFreq, e.actTx, e.actMsg)
	for _, i := range e.batch.Solo() {
		e.stepAgent(i, r)
	}
}

// deliver hands this round's receptions to their listeners — on the
// concurrent path behind the workers' deliver barrier, which also
// collects every awake node's output.
func (e *engine) deliver(r uint64) {
	if e.workers != nil {
		e.workers.barrier(workerCmd{round: r, deliver: true})
		return
	}
	for _, i := range e.pendingList {
		e.agents[i].Deliver(e.pending[i])
	}
}

// runRound executes round r end to end and reports whether the run should
// stop. After warm-up (all nodes awake, every reused buffer at its
// high-water capacity) a serial round performs zero heap allocations;
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
	e.deliver(r)
	e.recordOutputs(r)
	return e.observeAndCheckStop(r)
}

// run builds the core over graph (nil: the complete graph) and executes
// rounds until the stop rule fires or the round limit is reached.
func run(cfg *Config, graph medium.Graph, graphAt func(r uint64) medium.Graph, concurrent bool) (*Result, error) {
	e, err := newEngine(cfg, graph)
	if err != nil {
		return nil, err
	}
	e.graphAt = graphAt
	if concurrent {
		defer e.startWorkers()()
	}
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

// Run executes the simulation sequentially and returns its result. It
// returns an error only for invalid configurations; model violations by
// protocols or adversaries (out-of-range frequencies, over-budget
// disruption) panic, as they are programming errors.
func Run(cfg *Config) (*Result, error) { return countNodeRounds(run(cfg, nil, nil, false)) }

// RunGraph executes Run's round loop (RunConcurrent's with concurrent set)
// on communication graph g instead of the complete graph: a listener on
// frequency f receives iff exactly one of its neighbors in g transmits on
// f and f is not disrupted. It is the multihop drivers' entry point.
// graphAt, if non-nil, returns each round's graph before its activations;
// it must not return nil, and may return g itself mutated in place.
//
// Stats.Collisions counts (receiver, round) pairs with two or more
// transmitting neighbors; FirstClear, Clear, DisruptedLosses, and
// ClearBroadcasts stay zero. History.Last stays nil, round records are
// built only for cfg.Observers, and TotalNodeRounds is not updated.
func RunGraph(cfg *Config, g medium.Graph, graphAt func(r uint64) medium.Graph, concurrent bool) (*Result, error) {
	switch {
	case g == nil:
		return nil, errors.New("sim: RunGraph needs a graph")
	case cfg.Schedule != nil && g.N() != cfg.Schedule.N():
		return nil, fmt.Errorf("sim: graph has %d nodes, schedule covers %d", g.N(), cfg.Schedule.N())
	}
	return run(cfg, g, graphAt, concurrent)
}
