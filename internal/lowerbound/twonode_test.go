package lowerbound

import (
	"testing"

	"wsync/internal/rendezvous"
	"wsync/internal/rng"
)

// twoNodeGameScan is the pre-engine implementation of TwoNodeGame, kept as
// the differential oracle for rendezvous.Run on the round core. Its greedy
// rescan — t passes over [1..F], each blocking the first unblocked channel
// of strictly highest product — is the only copy of that loop in the
// module: rendezvous.Greedy and the history-reading jammers select through
// freqset.TopT instead. It must stay bit-identical to TwoNodeGame, which
// TestTwoNodeGameMatchesScan pins, node-rounds included: both parties wake
// in round 1, so the game runs two party-rounds per round played.
func twoNodeGameScan(u, v Regular, f, t int, offset uint64, maxRounds uint64, seed uint64) TwoNodeResult {
	r := rng.New(seed)
	ru := r.Split(1)
	rv := r.Split(2)

	products := make([]float64, f+1)
	disrupted := make([]bool, f+1)

	for i := uint64(1); i <= maxRounds; i++ {
		uLocal := offset + i // u has been awake for offset rounds already
		vLocal := i

		du, dv := u.Dist(uLocal), v.Dist(vLocal)
		bu, bv := u.TxProb(uLocal), v.TxProb(vLocal)

		// Greedy adversary: block the t largest p_j·q_j products.
		for j := 1; j <= f; j++ {
			products[j] = du.Prob(j) * dv.Prob(j)
			disrupted[j] = false
		}
		for k := 0; k < t; k++ {
			best, bestVal := 0, -1.0
			for j := 1; j <= f; j++ {
				if !disrupted[j] && products[j] > bestVal {
					best, bestVal = j, products[j]
				}
			}
			if best == 0 {
				break
			}
			disrupted[best] = true
		}

		fu := du.Sample(ru)
		fv := dv.Sample(rv)
		txu := ru.Bernoulli(bu)
		txv := rv.Bernoulli(bv)
		if fu == fv && txu != txv && !disrupted[fu] {
			return TwoNodeResult{Rounds: i, Met: true, NodeRounds: 2 * i}
		}
	}
	return TwoNodeResult{NodeRounds: 2 * maxRounds}
}

// TestRendezvousMatchesTwoNodeGame is the engine's differential anchor:
// two parties with uniform regular strategies against a static prefix
// jammer must reproduce the historical two-node scan loop's meeting rounds
// bit for bit across seeds. The prefix jammer stands in for the greedy
// product jammer because equal-width uniform strategies tie every product
// and greedy breaks ties toward low channels — rendezvous's
// TestGreedyMatchesPrefixOnUniform pins that identity.
func TestRendezvousMatchesTwoNodeGame(t *testing.T) {
	cases := []struct {
		f, t, width int
		offset      uint64
	}{
		{4, 1, 2, 0},
		{8, 2, 4, 0},
		{8, 2, 4, 17},
		{8, 5, 8, 0},
		{16, 3, 6, 1000},
		{16, 0, 1, 0},
	}
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for _, c := range cases {
		for seed := uint64(0); seed < uint64(seeds); seed++ {
			res, err := rendezvous.Run(&rendezvous.Config{
				F: c.f,
				Parties: []rendezvous.Party{
					{Strategy: rendezvous.Uniform{M: c.width, P: 0.5}, Head: c.offset},
					{Strategy: rendezvous.Uniform{M: c.width, P: 0.5}},
				},
				Jammer:    rendezvous.NewPrefix(c.f, c.t),
				MaxRounds: 1 << 16,
				Seed:      seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := UniformRegular{M: c.width, P: 0.5}
			want := twoNodeGameScan(reg, reg, c.f, c.t, c.offset, 1<<16, seed)
			got := TwoNodeResult{Rounds: res.FirstMeet, Met: res.FirstMeet != 0, NodeRounds: res.NodeRounds}
			if got != want {
				t.Fatalf("F=%d t=%d width=%d offset=%d seed=%d: engine %+v, scan oracle %+v",
					c.f, c.t, c.width, c.offset, seed, got, want)
			}
		}
	}
}

// TestRegularStrategyGallery runs the engine with every Regular schedule
// adapted through StrategyFromRegular against the greedy jammer and checks
// it against the scan oracle — the full TwoNodeGame replacement contract,
// not just the uniform special case.
func TestRegularStrategyGallery(t *testing.T) {
	regs := []struct {
		name string
		reg  Regular
	}{
		{"uniform", UniformRegular{M: 4, P: 0.5}},
		{"unknown-t", UnknownT{F: 8, Dwell: 4}},
	}
	for _, rc := range regs {
		for seed := uint64(0); seed < 25; seed++ {
			got := TwoNodeGame(rc.reg, rc.reg, 8, 2, 3, 1<<16, seed)
			want := twoNodeGameScan(rc.reg, rc.reg, 8, 2, 3, 1<<16, seed)
			if got != want {
				t.Fatalf("%s seed %d: engine %+v, scan %+v", rc.name, seed, got, want)
			}
		}
	}
}
