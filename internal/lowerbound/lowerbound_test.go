package lowerbound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wsync/internal/rng"
	"wsync/internal/trapdoor"
)

func TestBoundEvaluators(t *testing.T) {
	// Theorem 1 grows with N and shrinks with F−t.
	if Theorem1Rounds(1024, 8, 2) <= Theorem1Rounds(64, 8, 2) {
		t.Error("Theorem1Rounds not increasing in N")
	}
	if Theorem1Rounds(64, 16, 2) >= Theorem1Rounds(64, 8, 2) {
		t.Error("Theorem1Rounds not decreasing in F")
	}
	if !math.IsInf(Theorem1Rounds(64, 2, 2), 1) {
		t.Error("Theorem1Rounds finite at F == t")
	}
	// Theorem 4 grows with t and with 1/ε.
	if Theorem4Rounds(8, 6, 0.01) <= Theorem4Rounds(8, 2, 0.01) {
		t.Error("Theorem4Rounds not increasing in t")
	}
	if Theorem4Rounds(8, 2, 0.001) <= Theorem4Rounds(8, 2, 0.1) {
		t.Error("Theorem4Rounds not increasing in 1/ε")
	}
	if !math.IsInf(Theorem4Rounds(8, 2, 0), 1) {
		t.Error("Theorem4Rounds finite at ε = 0")
	}
	// Theorem 5 dominates both parts.
	if Theorem5Rounds(64, 8, 2) < Theorem1Rounds(64, 8, 2) {
		t.Error("Theorem5Rounds below Theorem 1 part")
	}
	// Theorem 10 grows with t at fixed F.
	if Theorem10Rounds(64, 8, 6) <= Theorem10Rounds(64, 8, 1) {
		t.Error("Theorem10Rounds not increasing in t")
	}
	// Theorem 18: good-case linear in t'; general linear in F.
	if got := Theorem18GoodRounds(64, 4) / Theorem18GoodRounds(64, 2); math.Abs(got-2) > 1e-9 {
		t.Errorf("Theorem18GoodRounds ratio = %v, want 2", got)
	}
	if got := Theorem18GeneralRounds(64, 16) / Theorem18GeneralRounds(64, 8); math.Abs(got-2) > 1e-9 {
		t.Errorf("Theorem18GeneralRounds ratio = %v, want 2", got)
	}
	// Lemma 2 bound.
	if Lemma2Bound(0) != 1 || Lemma2Bound(3) != 0.125 || Lemma2Bound(-1) != 1 {
		t.Error("Lemma2Bound wrong")
	}
}

func TestNoSingletonEdges(t *testing.T) {
	r := rng.New(1)
	// Zero balls: vacuously no singleton bin.
	if !NoSingleton(0, []float64{0.5, 0.5}, r) {
		t.Fatal("m=0 should have no singleton")
	}
	// One ball: always exactly one singleton.
	for i := 0; i < 20; i++ {
		if NoSingleton(1, []float64{0.5, 0.5}, r) {
			t.Fatal("m=1 cannot avoid a singleton")
		}
	}
	// Two balls, one bin: both land together.
	if !NoSingleton(2, []float64{1}, r) {
		t.Fatal("two balls in one bin is not a singleton")
	}
}

func TestNoSingletonValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid distribution accepted")
		}
	}()
	NoSingleton(2, []float64{0.2, 0.2}, rng.New(1))
}

func TestLemma2Distribution(t *testing.T) {
	probs := Lemma2Distribution(4, 0.6, 0.5)
	if len(probs) != 5 {
		t.Fatalf("len = %d", len(probs))
	}
	sum := 0.0
	for i, p := range probs {
		sum += p
		if i > 0 && probs[i-1] > p+1e-12 {
			t.Fatalf("not ascending: %v", probs)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sums to %v", sum)
	}
	if probs[4] != 0.6 {
		t.Fatalf("last = %v", probs[4])
	}
	// s = 0 degenerates to a point mass.
	if got := Lemma2Distribution(0, 0.7, 1); got[0] != 1 {
		t.Fatalf("s=0 distribution = %v", got)
	}
}

// TestLemma2Inequality verifies the lemma empirically: the no-singleton
// probability is at least 2^{−s} for distributions satisfying the
// hypothesis.
func TestLemma2Inequality(t *testing.T) {
	cases := []struct {
		s     int
		pLast float64
		decay float64
		m     int
	}{
		{1, 0.5, 1, 4},
		{2, 0.5, 1, 8},
		{2, 0.7, 0.5, 16},
		{3, 0.5, 1, 32},
		{3, 0.9, 0.25, 8},
		{4, 0.6, 0.5, 64},
	}
	for _, c := range cases {
		probs := Lemma2Distribution(c.s, c.pLast, c.decay)
		got := EstimateNoSingleton(c.m, probs, 4000, 42)
		bound := Lemma2Bound(c.s)
		// Allow modest Monte-Carlo slack below the bound.
		if got < bound*0.85 {
			t.Errorf("s=%d pLast=%v decay=%v m=%d: P = %v below bound %v",
				c.s, c.pLast, c.decay, c.m, got, bound)
		}
	}
}

// Property: the Lemma 2 inequality holds across random hypothesis-satisfying
// distributions.
func TestQuickLemma2(t *testing.T) {
	f := func(sRaw, mRaw, decayRaw, pRaw uint8) bool {
		s := int(sRaw%4) + 1
		m := int(mRaw%32) + 2
		decay := 0.25 + float64(decayRaw%3)*0.25 // 0.25, 0.5, 0.75
		pLast := 0.5 + float64(pRaw%5)*0.1       // 0.5 .. 0.9
		probs := Lemma2Distribution(s, pLast, decay)
		got := EstimateNoSingleton(m, probs, 1500, uint64(sRaw)<<8|uint64(mRaw))
		return got >= Lemma2Bound(s)*0.7 // generous MC slack
	}
	// Fixed generator: the property is statistical (a Monte-Carlo estimate
	// against a slackened bound), so a time-seeded input stream makes the
	// test flaky in CI.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTwoNodeGameMatchesScan is the differential contract behind the
// engine-backed TwoNodeGame: across schedules, offsets, budgets, and
// seeds, the rendezvous engine and the pre-engine scan loop report
// bit-identical results.
func TestTwoNodeGameMatchesScan(t *testing.T) {
	p := trapdoor.Params{N: 16, F: 8, T: 2}
	regs := []struct {
		name string
		u, v Regular
	}{
		{"uniform-4", UniformRegular{M: 4, P: 0.5}, UniformRegular{M: 4, P: 0.5}},
		{"uniform-asym", UniformRegular{M: 4, P: 0.5}, UniformRegular{M: 8, P: 0.25}},
		{"trapdoor", NewTrapdoorRegular(p), NewTrapdoorRegular(p)},
		{"unknown-t", UnknownT{F: 8, Dwell: 8}, UnknownT{F: 8, Dwell: 8}},
	}
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	// A modest round budget keeps the sweep fast; the never-met cells
	// (width <= t) exercise the truncation path on both implementations.
	for _, rc := range regs {
		for _, tJam := range []int{0, 2, 5} {
			for _, offset := range []uint64{0, 9} {
				for seed := uint64(0); seed < uint64(seeds); seed++ {
					got := TwoNodeGame(rc.u, rc.v, 8, tJam, offset, 1<<12, seed)
					want := twoNodeGameScan(rc.u, rc.v, 8, tJam, offset, 1<<12, seed)
					if got != want {
						t.Fatalf("%s t=%d offset=%d seed=%d: engine %+v, scan %+v",
							rc.name, tJam, offset, seed, got, want)
					}
				}
			}
		}
	}
}

// TestTwoNodeGameEdges covers the parameter extremes that previously had
// no direct coverage; the engine and the scan oracle must agree on every
// one of them.
func TestTwoNodeGameEdges(t *testing.T) {
	cases := []struct {
		name      string
		reg       UniformRegular
		f, t      int
		offset    uint64
		maxRounds uint64
		wantMet   bool
	}{
		// Offset at and beyond the budget: the game still plays maxRounds
		// rounds, only the local clocks are shifted.
		{"offset == maxRounds", UniformRegular{M: 4, P: 0.5}, 4, 0, 1 << 12, 1 << 12, true},
		{"offset >> maxRounds", UniformRegular{M: 4, P: 0.5}, 4, 0, 1 << 40, 1 << 12, true},
		// No jamming: rendezvous on the open band.
		{"t = 0", UniformRegular{M: 8, P: 0.5}, 8, 0, 0, 1 << 12, true},
		// One channel, no budget: meet as soon as the roles differ.
		{"f = 1 open", UniformRegular{M: 1, P: 0.5}, 1, 0, 0, 1 << 12, true},
		// One channel, fully jammed: never.
		{"f = 1 jammed", UniformRegular{M: 1, P: 0.5}, 1, 1, 0, 1 << 10, false},
		// Zero budget of rounds: nothing happens.
		{"maxRounds = 0", UniformRegular{M: 4, P: 0.5}, 4, 1, 0, 0, false},
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 5; seed++ {
			got := TwoNodeGame(c.reg, c.reg, c.f, c.t, c.offset, c.maxRounds, seed)
			want := twoNodeGameScan(c.reg, c.reg, c.f, c.t, c.offset, c.maxRounds, seed)
			if got != want {
				t.Fatalf("%s seed %d: engine %+v, scan %+v", c.name, seed, got, want)
			}
			if got.Met != c.wantMet {
				t.Fatalf("%s seed %d: Met = %v, want %v (%+v)", c.name, seed, got.Met, c.wantMet, got)
			}
			if got.Met && got.Rounds > c.maxRounds {
				t.Fatalf("%s: met after the budget: %+v", c.name, got)
			}
		}
	}
}

// sampleDistScan is the retired per-ball linear scan, kept as the oracle
// for the CDF sampler.
func sampleDistScan(probs []float64, r *rng.Rand) int {
	x := r.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1
}

// TestSampleCDFMatchesScan pins the bit-identical replacement of the
// linear scan: same distribution, same stream, same draws.
func TestSampleCDFMatchesScan(t *testing.T) {
	dists := [][]float64{
		{1},
		{0.5, 0.5},
		{0.25, 0.25, 0.5},
		Lemma2Distribution(4, 0.6, 0.5),
		Lemma2Distribution(7, 0.5, 1),
		// Slightly deficient sum (within validateDist tolerance): the tail
		// fallback must agree too.
		{0.4995, 0.4995},
	}
	for di, probs := range dists {
		cdf := buildCDF(probs)
		ra, rb := rng.New(uint64(di)+1), rng.New(uint64(di)+1)
		for i := 0; i < 20000; i++ {
			got := sampleCDF(cdf, ra)
			want := sampleDistScan(probs, rb)
			if got != want {
				t.Fatalf("dist %d draw %d: cdf %d, scan %d", di, i, got, want)
			}
		}
	}
}

// TestEstimateNoSingletonUnchanged re-runs the estimate through the old
// NoSingleton-per-trial path and requires exact equality — the CDF hoist
// must not move a single draw.
func TestEstimateNoSingletonUnchanged(t *testing.T) {
	probs := Lemma2Distribution(3, 0.6, 0.5)
	const trials, seed = 3000, 42
	got := EstimateNoSingleton(16, probs, trials, seed)
	r := rng.New(seed)
	hit := 0
	for i := 0; i < trials; i++ {
		if NoSingleton(16, probs, r) {
			hit++
		}
	}
	want := float64(hit) / float64(trials)
	if got != want {
		t.Fatalf("EstimateNoSingleton = %v, per-trial path = %v", got, want)
	}
}

func TestUniformRegular(t *testing.T) {
	u := UniformRegular{M: 4, P: 0.25}
	if u.Dist(1).Max() != 4 || u.TxProb(99) != 0.25 {
		t.Fatal("UniformRegular misbehaves")
	}
}

func TestTrapdoorRegularRamp(t *testing.T) {
	p := trapdoor.Params{N: 16, F: 8, T: 2, CEpoch: 4, CFinal: 4}
	reg := NewTrapdoorRegular(p)
	le := p.EpochLen()
	// Round 1 is epoch 1; round le+1 is epoch 2; etc.
	if got, want := reg.TxProb(1), p.BroadcastProb(1); got != want {
		t.Fatalf("round 1 prob = %v, want %v", got, want)
	}
	if got, want := reg.TxProb(le+1), p.BroadcastProb(2); got != want {
		t.Fatalf("round le+1 prob = %v, want %v", got, want)
	}
	// Beyond all epochs: final probability 1/2.
	if got := reg.TxProb(1 << 40); got != 0.5 {
		t.Fatalf("late prob = %v, want 0.5", got)
	}
	if reg.Dist(1).Max() != p.FPrime() {
		t.Fatalf("dist max = %d, want F' = %d", reg.Dist(1).Max(), p.FPrime())
	}
}

// TestTrapdoorRegularMatchesParams pins the precomputed ramp to the
// Params methods it is derived from, round by round: epoch e covers local
// rounds (e−1)·ℓE+1..e·ℓE for e < lgN, and every later round keeps the
// final probability.
func TestTrapdoorRegularMatchesParams(t *testing.T) {
	for _, p := range []trapdoor.Params{
		{N: 2, F: 2, T: 1},
		{N: 16, F: 8, T: 2, CEpoch: 4, CFinal: 4},
		{N: 64, F: 8, T: 2},
		{N: 1000, F: 16, T: 7, CEpoch: 1},
	} {
		reg := NewTrapdoorRegular(p)
		lg, le := p.LgN(), p.EpochLen()
		want := func(local uint64) float64 {
			if local <= uint64(lg-1)*le {
				return p.BroadcastProb(int((local-1)/le) + 1)
			}
			return p.BroadcastProb(lg)
		}
		for local := uint64(1); local <= uint64(lg+1)*le; local++ {
			if got := reg.TxProb(local); got != want(local) {
				t.Fatalf("%+v: TxProb(%d) = %v, want %v", p, local, got, want(local))
			}
		}
		if got := reg.TxProb(1 << 50); got != want(1<<50) {
			t.Fatalf("%+v: late TxProb = %v, want %v", p, got, want(1<<50))
		}
	}
}

func TestFirstClearQuick(t *testing.T) {
	// One node, half its rounds transmitting on [1..2], frequency 1 jammed:
	// a clear broadcast happens within a few rounds.
	res, err := FirstClear(UniformRegular{M: 2, P: 0.5}, 1, 2, 1, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Happened {
		t.Fatal("no clear broadcast in 10000 rounds")
	}
	if res.Rounds > 200 {
		t.Fatalf("first clear at round %d, expected within ~4 on average", res.Rounds)
	}
}

func TestFirstClearNeverWhenAllJammed(t *testing.T) {
	// Width 1 with frequency 1 jammed: no clear broadcast ever.
	res, err := FirstClear(UniformRegular{M: 1, P: 0.5}, 2, 2, 1, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Happened {
		t.Fatal("clear broadcast on a fully jammed schedule")
	}
}

func TestFirstClearErrors(t *testing.T) {
	if _, err := FirstClear(UniformRegular{M: 2, P: 0.5}, 0, 2, 1, 10, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestTwoNodeGameMeets(t *testing.T) {
	res := TwoNodeGame(UniformRegular{M: 4, P: 0.5}, UniformRegular{M: 4, P: 0.5}, 4, 1, 0, 100000, 7)
	if !res.Met {
		t.Fatal("nodes never met")
	}
	if res.Rounds == 0 {
		t.Fatal("met at round 0")
	}
}

func TestTwoNodeGameOffset(t *testing.T) {
	res := TwoNodeGame(UniformRegular{M: 4, P: 0.5}, UniformRegular{M: 4, P: 0.5}, 4, 1, 500, 100000, 8)
	if !res.Met {
		t.Fatal("offset nodes never met")
	}
}

func TestTwoNodeGameBlockedWidth(t *testing.T) {
	// Width <= t: the greedy adversary covers the whole support.
	res := TwoNodeGame(UniformRegular{M: 2, P: 0.5}, UniformRegular{M: 2, P: 0.5}, 8, 2, 0, 2000, 9)
	if res.Met {
		t.Fatal("met despite fully jammed support")
	}
}

func TestTwoNodeGameHarderWithMoreJamming(t *testing.T) {
	mean := func(tJam int, seed uint64) float64 {
		total := 0.0
		const trials = 150
		for i := 0; i < trials; i++ {
			res := TwoNodeGame(UniformRegular{M: 8, P: 0.5}, UniformRegular{M: 8, P: 0.5},
				8, tJam, 0, 1<<20, seed+uint64(i))
			if !res.Met {
				total += float64(uint64(1) << 20)
				continue
			}
			total += float64(res.Rounds)
		}
		return total / trials
	}
	easy := mean(1, 100)
	hard := mean(6, 200)
	if hard <= easy {
		t.Fatalf("t=6 mean %.1f not harder than t=1 mean %.1f", hard, easy)
	}
}

// TestBestUniformWidth reproduces the Theorem 4 extremal structure: the
// optimal spreading width is near min(F, 2t), and in particular beats
// spreading across the whole band.
func TestBestUniformWidth(t *testing.T) {
	best, means := BestUniformWidth(8, 2, 250, 1<<16, 77, 4)
	if best <= 2 {
		t.Fatalf("best width %d within jammed region", best)
	}
	if means[4] >= means[8]*1.05 {
		t.Fatalf("width 4 (%.1f) should beat width 8 (%.1f)", means[4], means[8])
	}
	if best < 3 || best > 6 {
		t.Fatalf("best width = %d, want near min(F, 2t) = 4", best)
	}
}

func TestTrapdoorScheduleFirstClearGrowsWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep")
	}
	mean := func(n int) float64 {
		p := trapdoor.Params{N: n, F: 8, T: 2}
		reg := NewTrapdoorRegular(p)
		total := 0.0
		const trials = 20
		for s := uint64(0); s < trials; s++ {
			res, err := FirstClear(reg, n, 8, 2, 1<<20, s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Happened {
				t.Fatalf("N=%d seed %d: no clear broadcast", n, s)
			}
			total += float64(res.Rounds)
		}
		return total / trials
	}
	small := mean(16)
	large := mean(256)
	if large <= small {
		t.Fatalf("first-clear time not growing with N: N=16 → %.1f, N=256 → %.1f", small, large)
	}
}

func TestUnknownTWidthCycle(t *testing.T) {
	u := UnknownT{F: 16, Dwell: 3}
	// Widths cycle 2, 4, 8, 16 with 3 rounds each.
	want := []int{2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16, 16, 2}
	for i, w := range want {
		if got := u.phaseWidth(uint64(i + 1)); got != w {
			t.Fatalf("round %d width = %d, want %d", i+1, got, w)
		}
	}
	if u.TxProb(5) != 0.5 {
		t.Fatal("tx prob != 1/2")
	}
}

func TestUnknownTDefaultsDwell(t *testing.T) {
	u := UnknownT{F: 8}
	if got := u.phaseWidth(1); got != 2 {
		t.Fatalf("width = %d", got)
	}
	if got := u.phaseWidth(2); got != 4 {
		t.Fatalf("dwell default: width = %d, want 4", got)
	}
}

// TestUnknownTRendezvous: without knowing t, the cycling schedule still
// meets, paying a modest factor over the t-aware optimal width.
func TestUnknownTRendezvous(t *testing.T) {
	const f, tJam, trials = 8, 2, 200
	mean := func(reg Regular) float64 {
		total := 0.0
		for i := 0; i < trials; i++ {
			res := TwoNodeGame(reg, reg, f, tJam, 0, 1<<20, 500+uint64(i))
			if !res.Met {
				t.Fatal("never met")
			}
			total += float64(res.Rounds)
		}
		return total / trials
	}
	aware := mean(UniformRegular{M: 4, P: 0.5})
	unaware := mean(UnknownT{F: f, Dwell: 8})
	if unaware < aware {
		t.Fatalf("t-unaware (%.1f) beat t-aware (%.1f)?", unaware, aware)
	}
	// lg F = 3 widths; the overhead should be bounded by ~2·lgF.
	if unaware > aware*8 {
		t.Fatalf("t-unaware overhead %.1fx too large", unaware/aware)
	}
}
