package sim_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/simtest"
)

// oracle_test.go checks the round core's medium resolution against the
// brute-force reception rule in internal/simtest, round by round. Each
// checked run has an unobserved twin that must return the identical
// Result: attaching the oracle switches record building on, so the twin
// keeps the no-record path covered.

// diffSchedule draws a randomized schedule shape for one differential case.
func diffSchedule(r *rng.Rand, n int) sim.Schedule {
	switch r.IntRange(0, 3) {
	case 0:
		return sim.Simultaneous{Count: n}
	case 1:
		return sim.Staggered{Count: n, Gap: uint64(r.IntRange(1, 5))}
	case 2:
		groups := r.IntRange(1, 3)
		return sim.Burst{Groups: groups, GroupSize: (n + groups - 1) / groups, Gap: uint64(r.IntRange(1, 9))}
	default:
		return sim.RandomWindow(n, uint64(r.IntRange(1, 40)), r.Uint64())
	}
}

// TestMediumDifferential runs the complete-graph resolver under the oracle
// over randomized configurations, and an unobserved twin of each run.
func TestMediumDifferential(t *testing.T) {
	master := rng.New(0xd1ff)
	cases := 60
	if testing.Short() {
		cases = 20
	}
	for c := 0; c < cases; c++ {
		r := master.Split(uint64(c))
		n := r.IntRange(2, 40)
		f := r.IntRange(2, 24)
		tBudget := r.IntRange(0, f-1)
		seed := r.Uint64()
		advSeed := r.Uint64()
		sched := diffSchedule(r, n)
		probe := r.Bool()
		runToMax := r.Bool()

		mk := func(observers ...sim.Observer) *sim.Config {
			cfg := &sim.Config{
				F:    f,
				T:    tBudget,
				Seed: seed,
				NewAgent: func(id sim.NodeID, activation uint64, rr *rng.Rand) sim.Agent {
					return sim.NewRandomAgent(rr, f)
				},
				Schedule:       sched,
				MaxRounds:      200,
				RunToMaxRounds: runToMax,
				ProbeWeights:   probe,
				Observers:      observers,
			}
			if tBudget > 0 {
				cfg.Adversary = sim.NewRandomAdv(f, tBudget, advSeed)
			}
			return cfg
		}

		oracle := &simtest.Oracle{}
		res, err := sim.Run(mk(oracle))
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if err := oracle.CheckResult(res); err != nil {
			t.Fatalf("case %d (n=%d F=%d t=%d sched=%T): %v", c, n, f, tBudget, sched, err)
		}
		twin, err := sim.Run(mk())
		if err != nil {
			t.Fatalf("case %d: twin: %v", c, err)
		}
		if !reflect.DeepEqual(res, twin) {
			t.Fatalf("case %d: the unobserved twin differs:\nobserved: %+v\ntwin:     %+v", c, res, twin)
		}
		if res.Stats.NodeRounds == 0 {
			t.Fatalf("case %d: NodeRounds not counted", c)
		}
	}
}

// parityJam disrupts nothing globally and, per listener, every frequency
// with (node + frequency) divisible by 3.
type parityJam struct{}

func (parityJam) Disrupt(uint64, *sim.History) *freqset.Set { return nil }
func (parityJam) DisruptedAt(i sim.NodeID, f int) bool      { return (int(i)+f)%3 == 0 }

// deliveryLog keeps a copy of every round's deliveries.
type deliveryLog [][]sim.Delivery

func (l *deliveryLog) ObserveRound(rec *sim.RoundRecord) {
	*l = append(*l, append([]sim.Delivery(nil), rec.Deliveries...))
}

// TestListenerDisrupter checks the per-listener hook on a graph: with the
// same actions, the hooked run delivers exactly the unhooked run's
// deliveries that the hook does not name; the oracle, told the hook,
// agrees in every round, and an unobserved twin returns the same Result.
// The complete-graph Run rejects the hook.
func TestListenerDisrupter(t *testing.T) {
	const f = 5
	grid := sim.NewTestGrid(4, 4)
	run := func(adv sim.Adversary, observers ...sim.Observer) *sim.Result {
		cfg := &sim.Config{
			F:    f,
			Seed: 3,
			// The steady agent's actions never depend on what it hears,
			// so every run below plays the same actions.
			NewAgent: func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
				return sim.NewSteadyAgent(r, f)
			},
			Schedule:       sim.Staggered{Count: 16, Gap: 1},
			Adversary:      adv,
			MaxRounds:      200,
			Observers:      observers,
			RunToMaxRounds: true,
		}
		res, err := sim.RunGraph(cfg, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var jam parityJam
	var plain, hooked deliveryLog
	run(nil, &plain)
	oracle := &simtest.Oracle{Graph: func(uint64) medium.Graph { return grid }, Jam: jam}
	res := run(jam, &hooked, oracle)
	if err := oracle.CheckResult(res); err != nil {
		t.Fatal(err)
	}
	if twin := run(jam); !reflect.DeepEqual(res, twin) {
		t.Fatalf("the unobserved twin differs:\nobserved: %+v\ntwin:     %+v", res, twin)
	}
	var kept, dropped int
	for k, got := range hooked {
		var want []sim.Delivery
		for _, d := range plain[k] {
			if jam.DisruptedAt(d.To, d.Freq) {
				dropped++
			} else {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d deliveries, want %d", k+1, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d delivery %d: %+v, want %+v", k+1, j, got[j], want[j])
			}
		}
		kept += len(got)
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("degenerate case: %d deliveries kept, %d dropped", kept, dropped)
	}

	_, err := sim.Run(&sim.Config{
		F:         f,
		NewAgent:  func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent { return sim.NewSteadyAgent(r, f) },
		Schedule:  sim.Simultaneous{Count: 4},
		Adversary: jam,
	})
	if err == nil || !strings.Contains(err.Error(), "RunGraph") {
		t.Fatalf("Run accepted a ListenerDisrupter: %v", err)
	}
}

// replayAgent plays a fixed per-round action sequence.
type replayAgent struct {
	plan []sim.Action
}

func (a *replayAgent) Step(local uint64) sim.Action {
	idx := int(local-1) % len(a.plan)
	return a.plan[idx]
}
func (a *replayAgent) Deliver(msg.Message) {}
func (a *replayAgent) Output() sim.Output  { return sim.Output{} }

// Property: for arbitrary random plans and jamming patterns, the engine's
// deliveries match the oracle in every round, and its Stats the oracle's
// totals.
func TestQuickMediumSemantics(t *testing.T) {
	prop := func(seed uint64, nRaw, fRaw, tRaw uint8) bool {
		n := int(nRaw%6) + 2
		f := int(fRaw%6) + 2
		tBudget := int(tRaw) % f
		r := rng.New(seed)

		plans := make([][]sim.Action, n)
		for i := range plans {
			plan := make([]sim.Action, 8)
			for j := range plan {
				plan[j] = sim.Action{Freq: r.IntRange(1, f), Transmit: r.Bool()}
				if plan[j].Transmit {
					plan[j].Msg = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{UID: uint64(i)}}
				}
			}
			plans[i] = plan
		}

		oracle := &simtest.Oracle{}
		cfg := &sim.Config{
			F:    f,
			T:    tBudget,
			Seed: seed,
			NewAgent: func(id sim.NodeID, activation uint64, rr *rng.Rand) sim.Agent {
				return &replayAgent{plan: plans[id]}
			},
			Schedule:       sim.Staggered{Count: n, Gap: 1},
			MaxRounds:      24,
			RunToMaxRounds: true,
			Observers:      []sim.Observer{oracle},
		}
		if tBudget > 0 {
			cfg.Adversary = sim.NewRandomAdv(f, tBudget, seed+1)
		}
		res, err := sim.Run(cfg)
		return err == nil && oracle.CheckResult(res) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
