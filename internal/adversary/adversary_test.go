package adversary

import (
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

func TestNone(t *testing.T) {
	if got := (None{}).Disrupt(1, nil); got != nil {
		t.Fatalf("None disrupted %v", got)
	}
}

func TestPrefix(t *testing.T) {
	a := NewPrefix(8, 3)
	s := a.Disrupt(1, nil)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for f := 1; f <= 3; f++ {
		if !s.Contains(f) {
			t.Fatalf("prefix missing %d", f)
		}
	}
	if s.Contains(4) {
		t.Fatal("prefix contains 4")
	}
	// Same set every round.
	if !a.Disrupt(99, nil).Equal(s) {
		t.Fatal("prefix varies across rounds")
	}
}

// TestLowPrefix pins the good-execution jammer: t' = 3 below a larger
// frequency budget is the same prefix jammer, built by NewPrefix.
func TestLowPrefix(t *testing.T) {
	a := NewPrefix(16, 3)
	s := a.Disrupt(4, nil)
	if s.Len() != 3 || !s.Contains(1) || !s.Contains(3) || s.Contains(4) {
		t.Fatalf("low prefix = %v", s.Slice())
	}
}

// TestRandomDisruptAllocs pins the in-place draw: after the first round,
// Disrupt performs no heap allocation. Random sits inside the
// engines' zero-alloc round loop (TestSteadyStateAllocs in internal/sim
// and internal/multihop), so a regression here breaks that contract too.
func TestRandomDisruptAllocs(t *testing.T) {
	a := NewRandom(16, 4, 7)
	r := uint64(0)
	a.Disrupt(1, nil)
	allocs := testing.AllocsPerRun(100, func() {
		r++
		a.Disrupt(r, nil)
	})
	if allocs != 0 {
		t.Fatalf("Disrupt allocates %.1f objects per round, want 0", allocs)
	}
}

// TestHistoryDisruptAllocs extends the pin to the history-reading
// jammers: with a previous round on record, Reactive and Stalker count
// into a reused row and select through freqset.TopT's reused index
// buffer, so a steady-state Disrupt allocates nothing.
func TestHistoryDisruptAllocs(t *testing.T) {
	for _, name := range []string{"reactive", "stalker"} {
		t.Run(name, func(t *testing.T) {
			const f = 128
			a, err := New(name, f, 48, 1)
			if err != nil {
				t.Fatal(err)
			}
			rec := &sim.RoundRecord{}
			for i := 0; i < 64; i++ {
				rec.Actions = append(rec.Actions, sim.ActionRecord{
					Node: sim.NodeID(i), Freq: 1 + i*37%f, Transmit: i%3 != 0,
				})
			}
			h := &sim.History{F: f, Last: rec}
			r := uint64(1)
			a.Disrupt(r, h)
			allocs := testing.AllocsPerRun(100, func() {
				r++
				rec.Actions[r%64].Freq = 1 + int(r*13%f)
				a.Disrupt(r, h)
			})
			if allocs != 0 {
				t.Fatalf("Disrupt allocates %.1f objects per round, want 0", allocs)
			}
			if got := a.Disrupt(r, h).Len(); got != 48 {
				t.Fatalf("Disrupt jammed %d frequencies, want 48", got)
			}
		})
	}
}

func TestPrefixZero(t *testing.T) {
	if got := NewPrefix(8, 0).Disrupt(1, nil).Len(); got != 0 {
		t.Fatalf("empty prefix has Len %d", got)
	}
}

func TestRandom(t *testing.T) {
	a := NewRandom(16, 4, 7)
	seen := make(map[string]bool)
	for r := uint64(1); r <= 50; r++ {
		s := a.Disrupt(r, nil)
		if s.Len() != 4 {
			t.Fatalf("round %d: Len = %d, want 4", r, s.Len())
		}
		for _, f := range s.Slice() {
			if f < 1 || f > 16 {
				t.Fatalf("round %d: frequency %d out of range", r, f)
			}
		}
		seen[s.String()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("random adversary produced only %d distinct sets in 50 rounds", len(seen))
	}
	// Determinism by seed.
	b1, b2 := NewRandom(16, 4, 9), NewRandom(16, 4, 9)
	for r := uint64(1); r <= 20; r++ {
		if !b1.Disrupt(r, nil).Equal(b2.Disrupt(r, nil)) {
			t.Fatal("random adversary not deterministic by seed")
		}
	}
}

// sampleKDisrupt is Random.Disrupt's historical body, kept as the
// reference its in-set Floyd draw must reproduce: sample t indices with
// rng.SampleKInto, then add them to the set.
func sampleKDisrupt(r *rng.Rand, f, t int, set *freqset.Set, scratch []int) []int {
	set.Clear()
	scratch = r.SampleKInto(f, t, scratch)
	for _, idx := range scratch {
		set.Add(idx + 1)
	}
	return scratch
}

// TestRandomMatchesSampleK pins Random and Bursty-over-Random to the
// SampleKInto reference: the same set every round and, after the run, the
// same position in the generator stream, so every seeded Result that
// reads either jammer is unchanged.
func TestRandomMatchesSampleK(t *testing.T) {
	const rounds = 1200
	for _, f := range []int{2, 3, 6, 64, 128} {
		for _, budget := range []int{0, 1, f / 2, f - 1} {
			for seed := uint64(1); seed <= 3; seed++ {
				want := freqset.New(f)
				var scratch []int

				a, ref := NewRandom(f, budget, seed), rng.New(seed)
				for r := uint64(1); r <= rounds; r++ {
					scratch = sampleKDisrupt(ref, f, budget, want, scratch)
					if got := a.Disrupt(r, nil); !got.Equal(want) {
						t.Fatalf("Random f=%d t=%d seed=%d round %d: %v, reference %v",
							f, budget, seed, r, got.Slice(), want.Slice())
					}
				}
				if got, w := a.r.Uint64(), ref.Uint64(); got != w {
					t.Fatalf("Random f=%d t=%d seed=%d: stream diverged after %d rounds", f, budget, seed, rounds)
				}

				b, ref := NewBursty(f, budget, 3, 2, seed), rng.New(seed)
				for r := uint64(1); r <= rounds; r++ {
					got := b.Disrupt(r, nil)
					if (r-1)%5 >= 3 {
						if got.Len() != 0 {
							t.Fatalf("Bursty f=%d t=%d seed=%d round %d: jams %v off-phase", f, budget, seed, r, got.Slice())
						}
						continue
					}
					scratch = sampleKDisrupt(ref, f, budget, want, scratch)
					if !got.Equal(want) {
						t.Fatalf("Bursty f=%d t=%d seed=%d round %d: %v, reference %v",
							f, budget, seed, r, got.Slice(), want.Slice())
					}
				}
				if got, w := b.inner.r.Uint64(), ref.Uint64(); got != w {
					t.Fatalf("Bursty f=%d t=%d seed=%d: stream diverged after %d rounds", f, budget, seed, rounds)
				}
			}
		}
	}
}

func TestSweep(t *testing.T) {
	a := NewSweep(6, 2, 1)
	s1 := a.Disrupt(1, nil)
	if !s1.Contains(1) || !s1.Contains(2) || s1.Len() != 2 {
		t.Fatalf("round 1 window = %v", s1.Slice())
	}
	s2 := a.Disrupt(2, nil)
	if !s2.Contains(2) || !s2.Contains(3) {
		t.Fatalf("round 2 window = %v", s2.Slice())
	}
	// Wraps around the band.
	s6 := a.Disrupt(6, nil)
	if !s6.Contains(6) || !s6.Contains(1) {
		t.Fatalf("round 6 window = %v", s6.Slice())
	}
}

func TestBursty(t *testing.T) {
	a := NewBursty(8, 2, 3, 2, 1)
	for r := uint64(1); r <= 10; r++ {
		s := a.Disrupt(r, nil)
		inOn := (r-1)%5 < 3
		if inOn && s.Len() != 2 {
			t.Fatalf("round %d: expected jamming, got %v", r, s.Slice())
		}
		if !inOn && s.Len() != 0 {
			t.Fatalf("round %d: expected silence, got %v", r, s.Slice())
		}
	}
}

func TestReactive(t *testing.T) {
	a := NewReactive(6, 2)
	// No history: jams the low prefix.
	s := a.Disrupt(1, &sim.History{F: 6})
	if !s.Contains(1) || !s.Contains(2) {
		t.Fatalf("initial reactive set = %v", s.Slice())
	}
	// With history: jams the busiest previous-round frequencies.
	h := &sim.History{
		F: 6,
		Last: &sim.RoundRecord{
			Actions: []sim.ActionRecord{
				{Node: 0, Freq: 5, Transmit: true},
				{Node: 1, Freq: 5, Transmit: true},
				{Node: 2, Freq: 3, Transmit: true},
				{Node: 3, Freq: 2, Transmit: false},
			},
		},
	}
	s = a.Disrupt(2, h)
	if !s.Contains(5) || !s.Contains(3) {
		t.Fatalf("reactive set = %v, want {3, 5}", s.Slice())
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, 8, 2, 1)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		s := a.Disrupt(1, &sim.History{F: 8})
		if s != nil && s.Len() > 2 {
			t.Errorf("New(%q) exceeded budget: %v", name, s.Slice())
		}
	}
	if _, err := New("nosuch", 8, 2, 1); err == nil {
		t.Error("unknown adversary accepted")
	}
	if _, err := New("fixed", 8, 8, 1); err == nil {
		t.Error("t >= F accepted")
	}
	if _, err := New("", 8, 0, 1); err != nil {
		t.Errorf("empty name should mean none: %v", err)
	}
}

// stubAgent counts interactions for the crash wrapper test.
type stubAgent struct {
	steps, delivers int
	leader          bool
}

func (s *stubAgent) Step(local uint64) sim.Action {
	s.steps++
	return sim.Action{Freq: 2, Transmit: true}
}
func (s *stubAgent) Deliver(msg.Message)    { s.delivers++ }
func (s *stubAgent) Output() sim.Output     { return sim.Output{Value: 9, Synced: true} }
func (s *stubAgent) IsLeader() bool         { return s.leader }
func (s *stubAgent) BroadcastProb() float64 { return 0.5 }

func TestCrashAgent(t *testing.T) {
	inner := &stubAgent{leader: true}
	c := &CrashAgent{Inner: inner, CrashAt: 3}

	a := c.Step(1)
	if !a.Transmit || inner.steps != 1 {
		t.Fatal("pre-crash Step not forwarded")
	}
	c.Deliver(msg.Message{})
	if inner.delivers != 1 {
		t.Fatal("pre-crash Deliver not forwarded")
	}
	if out := c.Output(); !out.Synced || out.Value != 9 {
		t.Fatal("pre-crash Output not forwarded")
	}
	if !c.IsLeader() || c.BroadcastProb() != 0.5 {
		t.Fatal("pre-crash reporting not forwarded")
	}

	_ = c.Step(2)
	a = c.Step(3) // crash
	if a.Transmit {
		t.Fatal("crashed node transmitted")
	}
	if !c.Crashed() {
		t.Fatal("Crashed() false after crash round")
	}
	c.Deliver(msg.Message{})
	if inner.delivers != 1 {
		t.Fatal("post-crash Deliver forwarded")
	}
	if out := c.Output(); out.Synced {
		t.Fatal("crashed node produced output")
	}
	if c.IsLeader() || c.BroadcastProb() != 0 {
		t.Fatal("crashed node still reports leadership/weight")
	}
	if inner.steps != 2 {
		t.Fatalf("inner steps = %d, want 2", inner.steps)
	}
}

func TestCrashAgentNeverCrashes(t *testing.T) {
	inner := &stubAgent{}
	c := &CrashAgent{Inner: inner}
	for r := uint64(1); r <= 100; r++ {
		_ = c.Step(r)
	}
	if c.Crashed() {
		t.Fatal("CrashAt=0 agent crashed")
	}
	if inner.steps != 100 {
		t.Fatalf("inner steps = %d", inner.steps)
	}
}

func TestStalker(t *testing.T) {
	a := NewStalker(6, 2)
	// No history: low prefix.
	s := a.Disrupt(1, &sim.History{F: 6})
	if !s.Contains(1) || !s.Contains(2) {
		t.Fatalf("initial stalker set = %v", s.Slice())
	}
	// With history: jams where the listeners were.
	h := &sim.History{
		F: 6,
		Last: &sim.RoundRecord{
			Actions: []sim.ActionRecord{
				{Node: 0, Freq: 4, Transmit: false},
				{Node: 1, Freq: 4, Transmit: false},
				{Node: 2, Freq: 6, Transmit: false},
				{Node: 3, Freq: 2, Transmit: true}, // transmitter: ignored
			},
		},
	}
	s = a.Disrupt(2, h)
	if !s.Contains(4) || !s.Contains(6) {
		t.Fatalf("stalker set = %v, want {4, 6}", s.Slice())
	}
	if s.Contains(2) {
		t.Fatal("stalker jammed a transmitter-only frequency")
	}
}

// TestStalkerDoesNotPreventSync: even the listener-targeting jammer cannot
// stop the Trapdoor Protocol (its budget is still t < F).
func TestStalkerDoesNotPreventSync(t *testing.T) {
	p := trapdoor.Params{N: 16, F: 8, T: 3}
	cfg := &sim.Config{
		F:    p.F,
		T:    p.T,
		Seed: 8,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		},
		Schedule:  sim.Simultaneous{Count: 4},
		Adversary: NewStalker(p.F, p.T),
		MaxRounds: 1 << 21,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced {
		t.Fatalf("stalker prevented synchronization (%d rounds)", res.Stats.Rounds)
	}
}
