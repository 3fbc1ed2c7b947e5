package sim

import (
	"fmt"
	"reflect"
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// dispatch_test.go pins the engine's output contract across its dispatch
// paths: each node's output is read right after its step (inside StepBatch
// for a cohort, after Step on the per-node fallback) and re-read after
// Deliver only for the nodes that received. It also pins the record rule:
// round records are built, and handed out as History.Last, iff an observer
// is attached or the adversary is non-nil and not HistoryBlind.

// dispatchAgent is an arena-built batch agent whose output changes either
// inside Step (at local round syncStep) or inside Deliver (on the first
// message received at or after local round syncDeliver); 0 disables
// either. It transmits with probability 1/2 on a random frequency, and
// remembers the local round it committed in, so a test can check the
// engine's SyncRound against the agent's own account.
type dispatchAgent struct {
	r                     *rng.Rand
	f                     int
	local                 uint64
	syncStep, syncDeliver uint64
	syncedLocal           uint64
	out                   Output
	arena                 *dispatchArena
}

func (a *dispatchAgent) commit(base uint64) {
	a.out = Output{Value: base + a.local, Synced: true}
	a.syncedLocal = a.local
}

func (a *dispatchAgent) step(local uint64, m *msg.Message) (int32, bool) {
	a.local = local
	if a.out.Synced {
		a.out.Value++
	} else if local == a.syncStep {
		a.commit(1000)
	}
	f := int32(a.r.IntRange(1, a.f))
	if a.r.Bool() {
		*m = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
		return f, true
	}
	return f, false
}

func (a *dispatchAgent) Step(local uint64) Action {
	var act Action
	f, tx := a.step(local, &act.Msg)
	act.Freq, act.Transmit = int(f), tx
	return act
}

func (a *dispatchAgent) Deliver(msg.Message) {
	if !a.out.Synced && a.syncDeliver != 0 && a.local >= a.syncDeliver {
		a.commit(2000)
	}
}

func (a *dispatchAgent) Output() Output { return a.out }

func (a *dispatchAgent) Cohort() any { return a.arena }

func (a *dispatchAgent) StepBatch(ids []int, r uint64, activation []uint64, actFreq []int32, actTx []bool, actMsg []msg.Message, outs []Output) {
	nodes := a.arena.nodes
	for _, id := range ids {
		nd := &nodes[id]
		f, tx := nd.step(r-activation[id]+1, &actMsg[id])
		actFreq[id] = f
		actTx[id] = tx
		outs[id] = nd.Output()
	}
}

// dispatchArena builds dispatchAgents into one slab, node i with the
// (syncStep, syncDeliver) pair plan[i]; the slab is one batch cohort.
type dispatchArena struct {
	f     int
	plan  [][2]uint64
	nodes []dispatchAgent
}

func newDispatchArena(f int, plan [][2]uint64) *dispatchArena {
	return &dispatchArena{f: f, plan: plan, nodes: make([]dispatchAgent, len(plan))}
}

func (a *dispatchArena) NewAgent(id NodeID, _ uint64, r *rng.Rand) Agent {
	nd := &a.nodes[id]
	*nd = dispatchAgent{r: r, f: a.f, syncStep: a.plan[id][0], syncDeliver: a.plan[id][1], arena: a}
	return nd
}

// outputCheck is an observer that compares every round's record outputs
// with what each agent reports at the end of the round (inactive slots
// report the zero Output either way), keeping the first mismatch and a
// copy of every round's outputs.
type outputCheck struct {
	arena   *dispatchArena
	err     string
	outputs [][]Output
}

func (o *outputCheck) ObserveRound(rec *RoundRecord) {
	for i := range o.arena.nodes {
		if got, want := rec.Outputs[i], o.arena.nodes[i].Output(); got != want && o.err == "" {
			o.err = fmt.Sprintf("round %d node %d: record output %+v, agent reports %+v", rec.Round, i, got, want)
		}
	}
	o.outputs = append(o.outputs, append([]Output(nil), rec.Outputs...))
}

// dispatchPath is one way of running the round core over the same Config.
type dispatchPath struct {
	name    string
	noBatch bool
	graph   bool // run on an explicit complete graph through RunGraph
}

func (p dispatchPath) run(cfg *Config) (*Result, error) {
	cfg.NoBatch = p.noBatch
	if p.graph {
		return RunGraph(cfg, NewClique(cfg.Schedule.N()), nil)
	}
	return Run(cfg)
}

// checkSyncRounds verifies the engine's SyncRound against each agent's own
// record of the local round it committed in.
func checkSyncRounds(res *Result, arena *dispatchArena) error {
	for i := range arena.nodes {
		var want uint64
		if l := arena.nodes[i].syncedLocal; l != 0 {
			want = res.Activated[i] + l - 1
		}
		if res.SyncRound[i] != want {
			return fmt.Errorf("node %d: SyncRound %d, want %d (agent committed at local round %d)",
				i, res.SyncRound[i], want, arena.nodes[i].syncedLocal)
		}
	}
	return nil
}

// TestOutputCapturedAfterStepAndDeliver runs agents that commit inside
// Step and agents that commit inside Deliver through every dispatch path:
// Run with an arena batch cohort, Run with NoBatch, and RunGraph on an
// explicit complete graph, which delivers exactly what the complete-graph
// medium does. Every path must report the round each agent itself
// committed in, record outputs equal to the agents' own, and identical
// SyncRound and per-round outputs.
func TestOutputCapturedAfterStepAndDeliver(t *testing.T) {
	const n, f, jam = 12, 3, 1
	plan := make([][2]uint64, n)
	for i := range plan {
		if i%2 == 0 {
			plan[i][0] = uint64(4 + i)
		} else {
			plan[i][1] = 3
		}
	}
	paths := []dispatchPath{
		{name: "batch"},
		{name: "nobatch", noBatch: true},
		{name: "graph", graph: true},
	}
	var ref *outputCheck
	var refSync []uint64
	for _, p := range paths {
		arena := newDispatchArena(f, plan)
		check := &outputCheck{arena: arena}
		cfg := &Config{
			F: f, T: jam, Seed: 11,
			NewAgent: arena.NewAgent,
			Schedule: Staggered{Count: n, Gap: 2},
			Adversary: &allocJammer{f: f, t: jam, r: rng.New(5), set: freqset.New(f),
				scratch: make([]int, 0, jam)},
			MaxRounds: 400,
			Observers: []Observer{check},
		}
		res, err := p.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if check.err != "" {
			t.Fatalf("%s: %s", p.name, check.err)
		}
		if err := checkSyncRounds(res, arena); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !res.AllSynced {
			t.Fatalf("%s: not every node committed within %d rounds; the check ran partly vacuously", p.name, cfg.MaxRounds)
		}
		if ref == nil {
			ref, refSync = check, res.SyncRound
			continue
		}
		if !reflect.DeepEqual(res.SyncRound, refSync) {
			t.Fatalf("%s: SyncRound %v, %s gave %v", p.name, res.SyncRound, paths[0].name, refSync)
		}
		if !reflect.DeepEqual(check.outputs, ref.outputs) {
			t.Fatalf("%s: per-round outputs diverge from %s", p.name, paths[0].name)
		}
	}
}

// probeJammer is allocJammer that also logs, per Disrupt call, whether the
// engine handed it History.Last. It declares nothing, so the engine must
// treat it as a history reader.
type probeJammer struct {
	allocJammer
	sawLast []bool
}

func (a *probeJammer) Disrupt(r uint64, h *History) *freqset.Set {
	a.sawLast = append(a.sawLast, h.Last != nil)
	return a.allocJammer.Disrupt(r, h)
}

// blindProbe is probeJammer declared HistoryBlind: its choices ignore the
// history (it only logs whether Last was set).
type blindProbe struct{ probeJammer }

func (*blindProbe) IgnoresHistory() {}

// hidingWrapper forwards to an inner adversary without declaring
// HistoryBlind, as a timing shim around a blind adversary does.
type hidingWrapper struct{ inner Adversary }

func (w hidingWrapper) Disrupt(r uint64, h *History) *freqset.Set { return w.inner.Disrupt(r, h) }

// TestHistoryLastRule crosses topology (complete graph, 4×4 grid),
// adversary (nil, blind, unmarked, an unmarked wrapper around a blind
// one) and observer (present, absent). Disrupt must see History.Last from
// round 2 on exactly when an observer is attached or the adversary is
// non-nil and unmarked, StopWhen must see it after every round under the
// same rule, and attaching an observer must not change the Result.
func TestHistoryLastRule(t *testing.T) {
	const n, f, jam, rounds = 16, 8, 2, 40
	for _, graph := range []bool{false, true} {
		for _, adv := range []string{"nil", "blind", "unmarked", "wrapped-blind"} {
			name := fmt.Sprintf("graph=%v/%s", graph, adv)
			results := map[bool]*Result{}
			for _, observed := range []bool{false, true} {
				probe := probeJammer{allocJammer: allocJammer{f: f, t: jam, r: rng.New(21),
					set: freqset.New(f), scratch: make([]int, 0, jam)}}
				var a Adversary
				var log *[]bool
				switch adv {
				case "blind":
					b := &blindProbe{probe}
					a, log = b, &b.sawLast
				case "unmarked":
					p := &probe
					a, log = p, &p.sawLast
				case "wrapped-blind":
					b := &blindProbe{probe}
					a, log = hidingWrapper{b}, &b.sawLast
				}
				want := observed || adv == "unmarked" || adv == "wrapped-blind"
				var stopSaw []bool
				cfg := &Config{
					F: f, T: jam, Seed: 3,
					NewAgent: func(_ NodeID, _ uint64, r *rng.Rand) Agent {
						return &randomAgent{r: r, f: f}
					},
					Schedule:       Staggered{Count: n, Gap: 1},
					Adversary:      a,
					MaxRounds:      rounds,
					RunToMaxRounds: true,
					StopWhen: func(h *History) bool {
						stopSaw = append(stopSaw, h.Last != nil)
						return false
					},
				}
				if observed {
					cfg.Observers = []Observer{&countingObserver{}}
				}
				var res *Result
				var err error
				if graph {
					res, err = RunGraph(cfg, newAllocGrid(4, 4), nil)
				} else {
					res, err = Run(cfg)
				}
				if err != nil {
					t.Fatalf("%s observed=%v: %v", name, observed, err)
				}
				if len(stopSaw) != rounds {
					t.Fatalf("%s observed=%v: StopWhen ran %d times, want %d", name, observed, len(stopSaw), rounds)
				}
				for k, saw := range stopSaw {
					if saw != want {
						t.Fatalf("%s observed=%v: StopWhen after round %d saw Last set = %v, want %v", name, observed, k+1, saw, want)
					}
				}
				if log != nil {
					if len(*log) != rounds {
						t.Fatalf("%s observed=%v: Disrupt ran %d times, want %d", name, observed, len(*log), rounds)
					}
					for k, saw := range *log {
						if w := want && k > 0; saw != w {
							t.Fatalf("%s observed=%v: Disrupt in round %d saw Last set = %v, want %v", name, observed, k+1, saw, w)
						}
					}
				}
				results[observed] = res
			}
			if !reflect.DeepEqual(results[false], results[true]) {
				t.Fatalf("%s: attaching an observer changed the Result", name)
			}
		}
	}
}

// FuzzDispatchPaths runs one small staggered population of dispatchAgents,
// committing in Step or in Deliver at fuzzed rounds, through Run, Run with
// NoBatch, and RunGraph on an explicit complete graph. Every path must keep
// record outputs equal to the agents' own and SyncRounds matching each
// agent's account. The two Run paths must give deep-equal Results and
// identical per-round records. On a graph Stats counts collisions per
// receiver and FirstClear and Clear stay zero, so the graph path is held
// to the same SyncRound, AllSynced, Rounds, NodeRounds and per-round
// outputs.
func FuzzDispatchPaths(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(1), uint8(2), uint8(12))
	f.Add(uint64(7), uint8(15), uint8(1), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(42), uint8(0), uint8(6), uint8(5), uint8(5), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, fRaw, tRaw, gapRaw, window uint8) {
		n := 1 + int(nRaw%16)
		fr := 1 + int(fRaw%8)
		budget := int(tRaw) % fr
		gap := uint64(gapRaw % 6)
		pick := rng.New(seed)
		plan := make([][2]uint64, n)
		for i := range plan {
			round := uint64(1 + pick.Intn(1+int(window%48)))
			switch pick.Intn(3) {
			case 1:
				plan[i][0] = round
			case 2:
				plan[i][1] = round
			}
		}
		paths := []dispatchPath{
			{name: "batch"},
			{name: "nobatch", noBatch: true},
			{name: "graph", graph: true},
		}
		var ref *Result
		var refTrace *traceObserver
		var refCheck *outputCheck
		for _, p := range paths {
			arena := newDispatchArena(fr, plan)
			check := &outputCheck{arena: arena}
			trace := &traceObserver{}
			cfg := &Config{
				F: fr, T: budget, Seed: seed,
				NewAgent:  arena.NewAgent,
				Schedule:  Staggered{Count: n, Gap: gap},
				MaxRounds: 96,
				Observers: []Observer{check, trace},
			}
			if budget > 0 {
				cfg.Adversary = &allocJammer{f: fr, t: budget, r: rng.New(seed ^ 0xad),
					set: freqset.New(fr), scratch: make([]int, 0, budget)}
			}
			res, err := p.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if check.err != "" {
				t.Fatalf("%s: %s", p.name, check.err)
			}
			if err := checkSyncRounds(res, arena); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if ref == nil {
				ref, refTrace, refCheck = res, trace, check
				continue
			}
			if p.graph {
				if !reflect.DeepEqual(res.SyncRound, ref.SyncRound) || res.AllSynced != ref.AllSynced ||
					res.Stats.Rounds != ref.Stats.Rounds || res.Stats.NodeRounds != ref.Stats.NodeRounds {
					t.Fatalf("%s: Result differs from %s:\n%+v\n%+v", p.name, paths[0].name, res, ref)
				}
				if !reflect.DeepEqual(check.outputs, refCheck.outputs) {
					t.Fatalf("%s: per-round outputs diverge from %s", p.name, paths[0].name)
				}
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s: Result differs from %s:\n%+v\n%+v", p.name, paths[0].name, res, ref)
			}
			if d := diffTraces(refTrace, trace); d != "" {
				t.Fatalf("%s: records diverge from %s: %s", p.name, paths[0].name, d)
			}
		}
	})
}
