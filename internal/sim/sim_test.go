package sim

import (
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
)

// scriptedAgent replays a fixed list of actions, repeating the last one
// forever, and records everything delivered to it. It syncs (outputting
// SyncValue, then incrementing) as soon as it receives any message.
type scriptedAgent struct {
	script    []Action
	delivered []msg.Message
	out       Output
}

func (a *scriptedAgent) Step(local uint64) Action {
	if a.out.Synced {
		a.out.Value++
	}
	idx := int(local) - 1
	if idx >= len(a.script) {
		idx = len(a.script) - 1
	}
	return a.script[idx]
}

func (a *scriptedAgent) Deliver(m msg.Message) {
	a.delivered = append(a.delivered, m.Clone())
	if !a.out.Synced {
		a.out = Output{Value: 100, Synced: true}
	}
}

func (a *scriptedAgent) Output() Output { return a.out }

func tx(freq int, uid uint64) Action {
	return Action{Freq: freq, Transmit: true, Msg: msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{UID: uid}}}
}

func listen(freq int) Action { return Action{Freq: freq} }

// fixedAdversary always disrupts the same frequencies.
type fixedAdversary struct{ set *freqset.Set }

func (f *fixedAdversary) Disrupt(round uint64, hist *History) *freqset.Set { return f.set }

// scriptConfig builds a config whose node i runs script[i].
func scriptConfig(f, t int, scripts [][]Action) (*Config, []*scriptedAgent) {
	agents := make([]*scriptedAgent, len(scripts))
	cfg := &Config{
		F:    f,
		T:    t,
		Seed: 1,
		NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
			a := &scriptedAgent{script: scripts[id]}
			agents[id] = a
			return a
		},
		Schedule:       Simultaneous{Count: len(scripts)},
		MaxRounds:      8,
		RunToMaxRounds: true,
	}
	return cfg, agents
}

func TestSingleTransmitterDelivers(t *testing.T) {
	cfg, agents := scriptConfig(4, 0, [][]Action{
		{tx(2, 42)},
		{listen(2)},
		{listen(3)},
	})
	cfg.MaxRounds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents[1].delivered) != 1 {
		t.Fatalf("listener on freq 2 got %d messages, want 1", len(agents[1].delivered))
	}
	if agents[1].delivered[0].TS.UID != 42 {
		t.Fatalf("wrong message delivered: %+v", agents[1].delivered[0])
	}
	if len(agents[2].delivered) != 0 {
		t.Fatal("listener on freq 3 received a message")
	}
	if len(agents[0].delivered) != 0 {
		t.Fatal("transmitter received its own message")
	}
	if res.Stats.Deliveries != 1 || res.Stats.Transmissions != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestCollisionBlocksDelivery(t *testing.T) {
	cfg, agents := scriptConfig(4, 0, [][]Action{
		{tx(2, 1)},
		{tx(2, 2)},
		{listen(2)},
	})
	cfg.MaxRounds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents[2].delivered) != 0 {
		t.Fatal("listener received during collision")
	}
	if res.Stats.Collisions != 1 {
		t.Fatalf("Collisions = %d, want 1", res.Stats.Collisions)
	}
	if res.Stats.ClearBroadcasts != 0 {
		t.Fatal("collision counted as clear broadcast")
	}
}

func TestDisruptionBlocksDelivery(t *testing.T) {
	cfg, agents := scriptConfig(4, 1, [][]Action{
		{tx(2, 1)},
		{listen(2)},
	})
	cfg.MaxRounds = 1
	cfg.Adversary = &fixedAdversary{set: freqset.FromSlice(4, []int{2})}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents[1].delivered) != 0 {
		t.Fatal("listener received on disrupted frequency")
	}
	if res.Stats.DisruptedLosses != 1 {
		t.Fatalf("DisruptedLosses = %d, want 1", res.Stats.DisruptedLosses)
	}
	if res.FirstClear != 0 {
		t.Fatal("disrupted broadcast counted as clear")
	}
}

func TestDisruptionOnOtherFreqDoesNotBlock(t *testing.T) {
	cfg, agents := scriptConfig(4, 1, [][]Action{
		{tx(2, 1)},
		{listen(2)},
	})
	cfg.MaxRounds = 1
	cfg.Adversary = &fixedAdversary{set: freqset.FromSlice(4, []int{3})}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(agents[1].delivered) != 1 {
		t.Fatal("delivery blocked by disruption of a different frequency")
	}
}

func TestClearBroadcastWithoutListeners(t *testing.T) {
	// A clear broadcast happens even when nobody listens (Theorem 1's
	// event is about the transmitter being alone and undisrupted).
	cfg, _ := scriptConfig(4, 0, [][]Action{
		{tx(1, 1)},
		{tx(2, 2)},
	})
	cfg.MaxRounds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstClear != 1 {
		t.Fatalf("FirstClear = %d, want 1", res.FirstClear)
	}
	if res.Stats.ClearBroadcasts != 2 {
		t.Fatalf("ClearBroadcasts = %d, want 2", res.Stats.ClearBroadcasts)
	}
}

func TestActivationTiming(t *testing.T) {
	var locals [][]uint64
	cfg := &Config{
		F:    2,
		Seed: 1,
		NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
			locals = append(locals, nil)
			idx := len(locals) - 1
			return &funcAgent{step: func(local uint64) Action {
				locals[idx] = append(locals[idx], local)
				return listen(1)
			}}
		},
		Schedule:       Explicit{Rounds: []uint64{1, 3}},
		MaxRounds:      4,
		RunToMaxRounds: true,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := locals[0]; len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("node 0 local rounds = %v", got)
	}
	if got := locals[1]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("node 1 local rounds = %v (activated round 3)", got)
	}
}

// funcAgent adapts closures to the Agent interface.
type funcAgent struct {
	step    func(local uint64) Action
	deliver func(m msg.Message)
	output  func() Output
}

func (a *funcAgent) Step(local uint64) Action {
	if a.step == nil {
		return Action{Freq: 1}
	}
	return a.step(local)
}

func (a *funcAgent) Deliver(m msg.Message) {
	if a.deliver != nil {
		a.deliver(m)
	}
}

func (a *funcAgent) Output() Output {
	if a.output == nil {
		return Output{}
	}
	return a.output()
}

func TestSyncBookkeeping(t *testing.T) {
	cfg, _ := scriptConfig(4, 0, [][]Action{
		{tx(1, 7)},
		{listen(2), listen(1)}, // receives in round 2
	})
	cfg.MaxRounds = 5
	cfg.RunToMaxRounds = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncRound[1] != 2 {
		t.Fatalf("SyncRound[1] = %d, want 2", res.SyncRound[1])
	}
	if res.SyncRound[0] != 0 {
		t.Fatalf("SyncRound[0] = %d, want 0 (never synced)", res.SyncRound[0])
	}
	if res.SyncLocal(1) != 2 {
		t.Fatalf("SyncLocal(1) = %d, want 2", res.SyncLocal(1))
	}
	if res.AllSynced {
		t.Fatal("AllSynced true with unsynced node")
	}
	if res.MaxSyncLocal != 2 {
		t.Fatalf("MaxSyncLocal = %d, want 2", res.MaxSyncLocal)
	}
}

func TestDefaultStopRule(t *testing.T) {
	// Two nodes that sync each other in round 1: run should stop then.
	cfg, _ := scriptConfig(4, 0, [][]Action{
		{tx(1, 7), listen(1)},
		{listen(1), tx(1, 8)},
	})
	cfg.RunToMaxRounds = false
	cfg.MaxRounds = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 syncs in round 1; node 0 in round 2.
	if res.Stats.Rounds != 2 {
		t.Fatalf("run lasted %d rounds, want 2", res.Stats.Rounds)
	}
	if !res.AllSynced || res.HitMaxRounds {
		t.Fatalf("result = %+v", res)
	}
}

func TestStopWhen(t *testing.T) {
	cfg, _ := scriptConfig(4, 0, [][]Action{{tx(1, 1)}})
	cfg.MaxRounds = 100
	cfg.StopWhen = func(h *History) bool { return h.EverClear }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (stop on first clear)", res.Stats.Rounds)
	}
}

func TestHitMaxRounds(t *testing.T) {
	cfg, _ := scriptConfig(4, 0, [][]Action{{listen(1)}})
	cfg.MaxRounds = 3
	cfg.RunToMaxRounds = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitMaxRounds || res.Stats.Rounds != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() *Config {
		return &Config{
			F:        2,
			T:        1,
			NewAgent: func(NodeID, uint64, *rng.Rand) Agent { return &funcAgent{} },
			Schedule: Simultaneous{Count: 1},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero F", func(c *Config) { c.F = 0 }},
		{"negative T", func(c *Config) { c.T = -1 }},
		{"T >= F", func(c *Config) { c.T = 2 }},
		{"nil NewAgent", func(c *Config) { c.NewAgent = nil }},
		{"nil Schedule", func(c *Config) { c.Schedule = nil }},
		{"empty schedule", func(c *Config) { c.Schedule = Simultaneous{Count: 0} }},
		{"activation round 0", func(c *Config) { c.Schedule = Explicit{Rounds: []uint64{0}} }},
	}
	for _, c := range cases {
		cfg := base()
		c.mutate(cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", c.name)
		}
	}
}

func TestAdversaryBudgetPanics(t *testing.T) {
	cfg, _ := scriptConfig(4, 1, [][]Action{{listen(1)}})
	cfg.Adversary = &fixedAdversary{set: freqset.FromSlice(4, []int{1, 2})}
	defer func() {
		if recover() == nil {
			t.Fatal("over-budget adversary did not panic")
		}
	}()
	_, _ = Run(cfg)
}

func TestBadFrequencyPanics(t *testing.T) {
	cfg, _ := scriptConfig(4, 0, [][]Action{{listen(9)}})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range frequency did not panic")
		}
	}()
	_, _ = Run(cfg)
}

// countingObserver verifies observers see every round with coherent data.
type countingObserver struct {
	rounds     int
	deliveries int
	lastRound  uint64
}

func (o *countingObserver) ObserveRound(rec *RoundRecord) {
	o.rounds++
	o.deliveries += len(rec.Deliveries)
	if rec.Round != o.lastRound+1 {
		panic("observer saw non-consecutive rounds")
	}
	o.lastRound = rec.Round
}

func TestObserver(t *testing.T) {
	cfg, _ := scriptConfig(4, 0, [][]Action{
		{tx(1, 1)},
		{listen(1)},
	})
	cfg.MaxRounds = 5
	cfg.RunToMaxRounds = true
	ob := &countingObserver{}
	cfg.Observers = []Observer{ob}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if ob.rounds != 5 {
		t.Fatalf("observer saw %d rounds, want 5", ob.rounds)
	}
	if ob.deliveries != 5 {
		t.Fatalf("observer saw %d deliveries, want 5", ob.deliveries)
	}
}

// randomAgent exercises the node RNG so determinism tests are meaningful.
// It transmits with probability 1/2 on a random frequency and syncs on
// first reception.
type randomAgent struct {
	r   *rng.Rand
	f   int
	out Output
}

func (a *randomAgent) Step(local uint64) Action {
	if a.out.Synced {
		a.out.Value++
	}
	act := Action{Freq: a.r.IntRange(1, a.f)}
	if a.r.Bool() {
		act.Transmit = true
		act.Msg = msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: local}}
	}
	return act
}

func (a *randomAgent) Deliver(m msg.Message) {
	if !a.out.Synced {
		a.out = Output{Value: 1, Synced: true}
	}
}

func (a *randomAgent) Output() Output { return a.out }

func randomConfig(seed uint64) *Config {
	return &Config{
		F:    6,
		T:    2,
		Seed: seed,
		NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
			return &randomAgent{r: r, f: 6}
		},
		Schedule:       Staggered{Count: 20, Gap: 2},
		Adversary:      &fixedAdversary{set: freqset.FromSlice(6, []int{1, 2})},
		MaxRounds:      300,
		RunToMaxRounds: true,
	}
}

func resultsEqual(a, b *Result) bool {
	if a.Stats != b.Stats || a.AllSynced != b.AllSynced ||
		a.MaxSyncLocal != b.MaxSyncLocal || a.FirstClear != b.FirstClear ||
		a.Leaders != b.Leaders || a.HitMaxRounds != b.HitMaxRounds {
		return false
	}
	for i := range a.SyncRound {
		if a.SyncRound[i] != b.SyncRound[i] || a.Activated[i] != b.Activated[i] {
			return false
		}
	}
	return true
}

func TestDeterminism(t *testing.T) {
	r1, err := Run(randomConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(randomConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(r1, r2) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
	r3, err := Run(randomConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if resultsEqual(r1, r3) {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestSchedules(t *testing.T) {
	s := Simultaneous{Count: 3}
	if s.N() != 3 || s.ActivationRound(0) != 1 || s.ActivationRound(2) != 1 {
		t.Fatal("Simultaneous misbehaves")
	}
	st := Staggered{Count: 4, Gap: 3}
	if st.N() != 4 || st.ActivationRound(0) != 1 || st.ActivationRound(3) != 10 {
		t.Fatal("Staggered misbehaves")
	}
	ex := Explicit{Rounds: []uint64{4, 2}}
	if ex.N() != 2 || ex.ActivationRound(1) != 2 {
		t.Fatal("Explicit misbehaves")
	}
	rw := RandomWindow(50, 10, 3)
	if rw.N() != 50 {
		t.Fatal("RandomWindow count wrong")
	}
	for i := 0; i < 50; i++ {
		r := rw.ActivationRound(i)
		if r < 1 || r > 10 {
			t.Fatalf("RandomWindow round %d out of [1..10]", r)
		}
	}
	rw2 := RandomWindow(50, 10, 3)
	for i := 0; i < 50; i++ {
		if rw.ActivationRound(i) != rw2.ActivationRound(i) {
			t.Fatal("RandomWindow not deterministic by seed")
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(randomConfig(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWireFidelityDelivery(t *testing.T) {
	// Protocols must survive the codec round-trip; full-stack runs with
	// WireFidelity exercise exactly what fits in a radio slot.
	cfg, agents := scriptConfig(4, 0, [][]Action{
		{tx(2, 42)},
		{listen(2)},
	})
	cfg.MaxRounds = 1
	cfg.WireFidelity = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(agents[1].delivered) != 1 || agents[1].delivered[0].TS.UID != 42 {
		t.Fatalf("wire-fidelity delivery = %+v", agents[1].delivered)
	}
}

func TestWireFidelityRejectsUnencodable(t *testing.T) {
	// A message with an invalid kind cannot be serialized; the engine
	// flags the protocol bug loudly.
	bad := Action{Freq: 1, Transmit: true, Msg: msg.Message{Kind: msg.Kind(99)}}
	cfg, _ := scriptConfig(2, 0, [][]Action{
		{bad},
		{listen(1)},
	})
	cfg.MaxRounds = 1
	cfg.WireFidelity = true
	defer func() {
		if recover() == nil {
			t.Fatal("unencodable message not flagged")
		}
	}()
	_, _ = Run(cfg)
}
