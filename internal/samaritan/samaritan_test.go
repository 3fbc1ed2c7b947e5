package samaritan

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/core"
	"wsync/internal/msg"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 8, F: 0, T: 0},
		{N: 8, F: 4, T: -1},
		{N: 8, F: 4, T: 4},
		{N: 8, F: 4, T: 3},                   // T > F/2
		{N: 8, F: 4, T: 1, LeaderTxProb: 2},  // bad prob
		{N: 8, F: 4, T: 1, EpochLogPower: 9}, // absurd exponent
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	if err := (Params{N: 8, F: 4, T: 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestScheduleMatchesFigure2 checks the generated structure against
// Figure 2: lgF super-epochs of lgN+2 epochs each, epoch length
// Θ(2^k·log^P N) growing geometrically in k, probability ramp 1/N..1/2
// then 1/2 for the two extra epochs, narrow band [1..2^k].
func TestScheduleMatchesFigure2(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2, CEpoch: 2, EpochLogPower: 2}
	rows := p.Schedule()
	lgN, lgF := p.LgN(), p.LgF()
	if lgN != 4 || lgF != 3 {
		t.Fatalf("lgN=%d lgF=%d", lgN, lgF)
	}
	if len(rows) != lgF*(lgN+2) {
		t.Fatalf("rows = %d, want %d", len(rows), lgF*(lgN+2))
	}
	// Epoch lengths double per super-epoch: s(k) = 2·2^k·16.
	for _, row := range rows {
		want := uint64(2) * (1 << uint(row.Super)) * 16
		if row.Length != want {
			t.Errorf("s(%d) = %d, want %d", row.Super, row.Length, want)
		}
		wantBand := 1 << uint(row.Super)
		if wantBand > 8 {
			wantBand = 8
		}
		if row.NarrowBand != wantBand {
			t.Errorf("super %d band = %d, want %d", row.Super, row.NarrowBand, wantBand)
		}
		if row.Special != (row.Epoch > lgN) {
			t.Errorf("super %d epoch %d special flag = %v", row.Super, row.Epoch, row.Special)
		}
	}
	// Probability ramp within a super-epoch: 1/16, 2/16, 4/16, 8/16, 1/2, 1/2.
	want := []float64{1.0 / 16, 2.0 / 16, 4.0 / 16, 8.0 / 16, 0.5, 0.5}
	for e := 1; e <= lgN+2; e++ {
		if got := rows[e-1].Prob; got != want[e-1] {
			t.Errorf("epoch %d prob = %v, want %v", e, got, want[e-1])
		}
	}
}

func TestSuccessThreshold(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2, CEpoch: 16, EpochLogPower: 2, ThresholdShift: 6}
	// s(k) = 16·2^k·16 = 256·2^k; threshold = s(k)/2^(k+6) = 256/64 = 4.
	for k := 1; k <= 3; k++ {
		if got := p.SuccessThreshold(k); got != 4 {
			t.Errorf("threshold(%d) = %d, want 4", k, got)
		}
	}
	// Tiny parameters floor at 1.
	small := Params{N: 4, F: 4, T: 1, CEpoch: 1, EpochLogPower: 1}
	if got := small.SuccessThreshold(1); got < 1 {
		t.Errorf("threshold = %d, want >= 1", got)
	}
}

func TestFallbackEpochLen(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2, CEpoch: 2, EpochLogPower: 2}
	// Longest epoch: s(lgF) = 2·8·16 = 256; fallback = 4×256 = 1024.
	if got := p.FallbackEpochLen(); got != 1024 {
		t.Fatalf("FallbackEpochLen = %d, want 1024", got)
	}
}

func TestOptimisticRounds(t *testing.T) {
	p := Params{N: 16, F: 8, T: 2, CEpoch: 2, EpochLogPower: 2}
	// Σ_k (lgN+2)·s(k) = 6·(64+128+256)·... s(k)=2·2^k·16: 64,128,256 → 6·448 = 2688.
	if got := p.OptimisticRounds(); got != 2688 {
		t.Fatalf("OptimisticRounds = %d, want 2688", got)
	}
}

func TestDowngradeIgnoresTimestamps(t *testing.T) {
	p := Params{N: 8, F: 8, T: 2}
	n := MustNew(p, rng.New(1))
	n.Step(100) // age 100: larger than the sender's
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 1, UID: 1}, Epoch: 1, Super: 1})
	if n.Role() != core.RoleSamaritan {
		t.Fatalf("role = %v, want samaritan despite larger own timestamp", n.Role())
	}
}

func TestSamaritanKnockout(t *testing.T) {
	p := Params{N: 8, F: 8, T: 2}
	n := MustNew(p, rng.New(1))
	n.Step(1)
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 1, UID: 1}})
	if n.Role() != core.RoleSamaritan {
		t.Fatal("setup: not samaritan")
	}
	n.Deliver(msg.Message{Kind: msg.KindSamaritan, TS: msg.Timestamp{Age: 1, UID: 2}})
	if n.Role() != core.RolePassive {
		t.Fatalf("role = %v, want passive after samaritan message", n.Role())
	}
	// Passive nodes only listen.
	for r := uint64(2); r < 50; r++ {
		if a := n.Step(r); a.Transmit {
			t.Fatal("passive node transmitted")
		}
	}
}

// driveToEpoch advances a node to the given super-epoch and epoch by
// stepping it; it requires the node to still be contender/samaritan.
func driveToEpoch(t *testing.T, n *Node, super, epoch int) uint64 {
	t.Helper()
	r := uint64(0)
	for n.super != super || n.epoch != epoch {
		r++
		n.Step(r)
		if r > 10_000_000 {
			t.Fatalf("never reached super %d epoch %d (at %d/%d)", super, epoch, n.super, n.epoch)
		}
	}
	return r
}

func TestSamaritanRecordingConditions(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1, CEpoch: 2, EpochLogPower: 1}
	critical := p.LgN() + 1

	mk := func() (*Node, uint64) {
		n := MustNew(p, rng.New(3))
		n.Step(1)
		n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 1, UID: 1}})
		if n.Role() != core.RoleSamaritan {
			t.Fatal("setup: not samaritan")
		}
		age := driveToEpoch(t, n, 1, critical)
		// Make sure this round is non-special for the samaritan.
		for n.thisSpecial {
			age++
			n.Step(age)
			if n.epoch != critical {
				t.Fatal("left critical epoch while searching for non-special round")
			}
		}
		return n, age
	}

	good := func(age uint64) msg.Message {
		return msg.Message{
			Kind:  msg.KindContender,
			TS:    msg.Timestamp{Age: age, UID: 42},
			Epoch: uint16(critical),
			Super: 1,
		}
	}

	// Recording happens under the right conditions.
	n, age := mk()
	n.Deliver(good(age))
	if n.tallies[42] != 1 {
		t.Fatalf("tally = %d, want 1", n.tallies[42])
	}
	// Wrong sender epoch: ignored.
	n, age = mk()
	m := good(age)
	m.Epoch = uint16(critical - 1)
	n.Deliver(m)
	if n.tallies[42] != 0 {
		t.Fatal("recorded despite wrong sender epoch")
	}
	// Special sender round: ignored.
	n, age = mk()
	m = good(age)
	m.Special = true
	n.Deliver(m)
	if n.tallies[42] != 0 {
		t.Fatal("recorded despite special sender round")
	}
	// Different activation (age mismatch): ignored.
	n, age = mk()
	m = good(age + 7)
	n.Deliver(m)
	if n.tallies[42] != 0 {
		t.Fatal("recorded despite age mismatch")
	}
	// Fallback sender: ignored.
	n, age = mk()
	m = good(age)
	m.Fallback = true
	n.Deliver(m)
	if n.tallies[42] != 0 {
		t.Fatal("recorded despite fallback sender")
	}
}

func TestContenderPromotedByReport(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1}
	n := MustNew(p, rng.New(5))
	n.Step(1)
	th := p.SuccessThreshold(1)
	// Below threshold: stays contender.
	n.Deliver(msg.Message{
		Kind: msg.KindSamaritan, TS: msg.Timestamp{Age: 1, UID: 7}, Super: 1,
		Reports: []msg.Report{{UID: n.UID(), Count: th - 1}},
	})
	if n.IsLeader() {
		t.Fatal("promoted below threshold")
	}
	// Wrong super-epoch: ignored.
	n.Deliver(msg.Message{
		Kind: msg.KindSamaritan, TS: msg.Timestamp{Age: 1, UID: 7}, Super: 2,
		Reports: []msg.Report{{UID: n.UID(), Count: th + 5}},
	})
	if n.IsLeader() {
		t.Fatal("promoted by report from another super-epoch")
	}
	// Someone else's report: ignored.
	n.Deliver(msg.Message{
		Kind: msg.KindSamaritan, TS: msg.Timestamp{Age: 1, UID: 7}, Super: 1,
		Reports: []msg.Report{{UID: n.UID() + 1, Count: th + 5}},
	})
	if n.IsLeader() {
		t.Fatal("promoted by another contender's tally")
	}
	// Meeting the threshold promotes.
	n.Deliver(msg.Message{
		Kind: msg.KindSamaritan, TS: msg.Timestamp{Age: 1, UID: 7}, Super: 1,
		Reports: []msg.Report{{UID: n.UID(), Count: th}},
	})
	if !n.IsLeader() {
		t.Fatal("not promoted at threshold")
	}
	if !n.Output().Synced {
		t.Fatal("leader not synced")
	}
}

func TestFallbackEntryAndLeadership(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1, CEpoch: 1, EpochLogPower: 1}
	n := MustNew(p, rng.New(6))
	opt := p.OptimisticRounds()
	for r := uint64(1); r <= opt+1; r++ {
		n.Step(r)
	}
	if !n.InFallback() {
		t.Fatalf("role = %v, want fallback after %d rounds", n.Role(), opt+1)
	}
	// A lone fallback contender wins after lgN fallback epochs.
	fbTotal := uint64(p.LgN()) * p.FallbackEpochLen()
	for r := opt + 2; r <= opt+fbTotal+2; r++ {
		n.Step(r)
	}
	if !n.IsLeader() {
		t.Fatalf("role = %v, want leader after fallback epochs", n.Role())
	}
}

func TestFallbackKnockoutUsesTimestamps(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1, CEpoch: 1, EpochLogPower: 1}
	n := MustNew(p, rng.New(6))
	opt := p.OptimisticRounds()
	for r := uint64(1); r <= opt+1; r++ {
		n.Step(r)
	}
	if !n.InFallback() {
		t.Fatal("setup: not in fallback")
	}
	// Smaller timestamp: survives.
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 1, UID: 1}, Fallback: true})
	if n.Role() != core.RoleFallback {
		t.Fatal("fallback node knocked out by smaller timestamp")
	}
	// Larger timestamp: knocked out.
	n.Deliver(msg.Message{Kind: msg.KindContender, TS: msg.Timestamp{Age: 1 << 40, UID: 1}, Fallback: true})
	if n.Role() != core.RolePassive {
		t.Fatalf("role = %v, want passive", n.Role())
	}
}

func TestLeaderAdoptionAndDeferral(t *testing.T) {
	p := Params{N: 4, F: 4, T: 1}
	n := MustNew(p, rng.New(8))
	n.Step(1)
	n.Deliver(msg.Message{Kind: msg.KindLeader, TS: msg.Timestamp{Age: 10, UID: 2}, Round: 900, Scheme: 2})
	if n.Role() != core.RoleSynced {
		t.Fatalf("role = %v, want synced", n.Role())
	}
	out := n.Output()
	if !out.Synced || out.Value != 900 {
		t.Fatalf("output = %+v", out)
	}
	n.Step(2)
	if got := n.Output().Value; got != 901 {
		t.Fatalf("output = %d, want 901", got)
	}
}

// goodCaseConfig is the Theorem 18 optimistic setting: all nodes start
// together, adversary jams only tPrime < T low frequencies.
func goodCaseConfig(p Params, n int, tPrime int, seed uint64) *sim.Config {
	return &sim.Config{
		F:    p.F,
		T:    p.T,
		Seed: seed,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return MustNew(p, r)
		},
		Schedule:  sim.Simultaneous{Count: n},
		Adversary: adversary.NewPrefix(p.F, tPrime),
		MaxRounds: 3_000_000,
		// Every protocol message must survive the radio wire format.
		WireFidelity: true,
	}
}

func TestGoodCaseTwoNodes(t *testing.T) {
	p := Params{N: 16, F: 8, T: 4}
	ok := 0
	for seed := uint64(0); seed < 3; seed++ {
		cfg := goodCaseConfig(p, 2, 1, seed)
		check := props.NewChecker(2)
		cfg.Observers = []sim.Observer{check}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not synced in %d rounds", seed, res.Stats.Rounds)
		}
		if !check.OK() {
			t.Fatalf("seed %d: violations: %v", seed, check.Violations())
		}
		if res.Leaders == 1 {
			ok++
		}
		// The good case should finish inside the optimistic portion.
		if res.MaxSyncLocal > p.OptimisticRounds() {
			t.Fatalf("seed %d: sync took %d rounds, beyond the optimistic portion %d",
				seed, res.MaxSyncLocal, p.OptimisticRounds())
		}
	}
	if ok < 3 {
		t.Fatalf("unique leader in only %d/3 runs", ok)
	}
}

func TestGoodCaseSeveralNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 16, F: 8, T: 4}
	for seed := uint64(0); seed < 3; seed++ {
		cfg := goodCaseConfig(p, 6, 2, seed)
		check := props.NewChecker(6)
		cfg.Observers = []sim.Observer{check}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not synced in %d rounds", seed, res.Stats.Rounds)
		}
		if !check.OK() {
			t.Fatalf("seed %d: violations: %v", seed, check.Violations())
		}
	}
}

func TestGeneralCaseStaggeredFallsBackAndSyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 8, F: 4, T: 2, CEpoch: 2}
	for seed := uint64(0); seed < 3; seed++ {
		cfg := &sim.Config{
			F:    p.F,
			T:    p.T,
			Seed: seed,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				return MustNew(p, r)
			},
			Schedule:  sim.Staggered{Count: 4, Gap: 500},
			Adversary: adversary.NewRandom(p.F, p.T, seed+77),
			MaxRounds: 3_000_000,
		}
		check := props.NewChecker(4)
		cfg.Observers = []sim.Observer{check}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllSynced {
			t.Fatalf("seed %d: not synced in %d rounds", seed, res.Stats.Rounds)
		}
		if !check.OK() {
			t.Fatalf("seed %d: violations: %v", seed, check.Violations())
		}
	}
}

// Property-style invariant: a transmitting node cannot be downgraded in the
// same round it transmits (it is not listening), so at least one contender
// always remains among nodes that have not entered fallback or leadership.
// We verify the weaker observable: in good-case runs some node always
// becomes leader, never zero.
func TestLeaderAlwaysEmerges(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := Params{N: 8, F: 4, T: 2, CEpoch: 2}
	for seed := uint64(10); seed < 13; seed++ {
		cfg := goodCaseConfig(p, 3, 1, seed)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders < 1 {
			t.Fatalf("seed %d: no leader emerged", seed)
		}
	}
}

// TestLiteralFigure2EpochLength runs the protocol with EpochLogPower=3 —
// Figure 2 exactly as printed — and verifies the good case still works
// (total becomes Θ(t'·log⁴N); see DESIGN.md on the paper's internal
// inconsistency).
func TestLiteralFigure2EpochLength(t *testing.T) {
	if testing.Short() {
		t.Skip("long literal-figure run")
	}
	p := Params{N: 8, F: 8, T: 4, EpochLogPower: 3, CEpoch: 2}
	cfg := goodCaseConfig(p, 2, 1, 1)
	cfg.MaxRounds = 5_000_000
	check := props.NewChecker(2)
	cfg.Observers = []sim.Observer{check}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSynced {
		t.Fatalf("literal Figure 2 config did not sync in %d rounds", res.Stats.Rounds)
	}
	if !check.OK() {
		t.Fatalf("violations: %v", check.Violations())
	}
	// Epoch lengths grow by lgN over the default exponent.
	def := Params{N: 8, F: 8, T: 4, CEpoch: 2}
	if p.EpochLen(1) != def.EpochLen(1)*uint64(p.LgN()) {
		t.Fatalf("s(1) = %d, want %d × lgN", p.EpochLen(1), def.EpochLen(1))
	}
}
