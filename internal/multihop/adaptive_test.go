package multihop

import (
	"reflect"
	"sort"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// TestAdaptiveAdversarySeesGraphHistory is the regression pin for
// history-reading jammers on graphs: without History.Last, Reactive jams
// the fixed low prefix every round and its Result equals the prefix
// jammer's.
func TestAdaptiveAdversarySeesGraphHistory(t *testing.T) {
	const f, jam = 8, 3
	p := trapdoor.Params{N: 64, F: f, T: jam}
	run := func(adv sim.Adversary) *Result {
		res, err := Run(&Config{
			F: f, T: jam, Seed: 5,
			Topology: Grid(6, 6),
			NewAgent: func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
				return MustNewRelay(p, r)
			},
			Adversary: adv,
			MaxRounds: 400,
			RunToMax:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if reflect.DeepEqual(run(adversary.NewReactive(f, jam)), run(adversary.NewPrefix(f, jam))) {
		t.Fatal("reactive jammer played exactly as the low-prefix jammer on a grid: it saw no history")
	}
}

// jamLog records, for every round, the disrupted set and the per-frequency
// transmitter and listener counts of the graph round record.
type jamLog struct {
	f                int
	jammed           [][]int
	txCount, rxCount [][]int
}

func (l *jamLog) ObserveRound(rec *sim.RoundRecord) {
	tx, rx := make([]int, l.f+1), make([]int, l.f+1)
	for _, a := range rec.Actions {
		if a.Transmit {
			tx[a.Freq]++
		} else {
			rx[a.Freq]++
		}
	}
	l.jammed = append(l.jammed, rec.Disrupted.Slice())
	l.txCount, l.rxCount = append(l.txCount, tx), append(l.rxCount, rx)
}

// busiest returns the t frequencies with the highest counts, ties to the
// lower frequency, ascending.
func busiest(cnt []int, t int) []int {
	freqs := make([]int, 0, len(cnt)-1)
	for fr := 1; fr < len(cnt); fr++ {
		freqs = append(freqs, fr)
	}
	sort.SliceStable(freqs, func(i, j int) bool { return cnt[freqs[i]] > cnt[freqs[j]] })
	freqs = freqs[:t]
	sort.Ints(freqs)
	return freqs
}

// TestAdaptiveAdversaryJamsLastGraphRound checks what the adaptive jammers
// read on a churned graph: from round 2 on, Reactive jams the t
// frequencies with the most transmitters of the previous round and
// Stalker those with the most listeners. The oracle must agree with every
// round's receptions, as for every other adversary, and observers must
// not change the run.
func TestAdaptiveAdversaryJamsLastGraphRound(t *testing.T) {
	const f, jam, rounds = 8, 3, 120
	for _, tc := range []struct {
		name      string
		mk        func() sim.Adversary
		listeners bool
	}{
		{"reactive", func() sim.Adversary { return adversary.NewReactive(f, jam) }, false},
		{"stalker", func() sim.Adversary { return adversary.NewStalker(f, jam) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Grid(6, 6)
			cfg := Config{F: f, T: jam, Seed: 9, Topology: base, MaxRounds: rounds, RunToMax: true}
			mkChurn := func() *testChurn { return newTestChurn(base, 17) }

			log := &jamLog{f: f}
			cfg.Observers = []sim.Observer{log}
			if _, _, err := diffRun(t, cfg, tc.mk, mkChurn); err != nil {
				t.Fatal(err)
			}
			if len(log.jammed) != rounds {
				t.Fatalf("observed %d rounds, want %d", len(log.jammed), rounds)
			}
			for r := 1; r < rounds; r++ {
				cnt := log.txCount[r-1]
				if tc.listeners {
					cnt = log.rxCount[r-1]
				}
				if want := busiest(cnt, jam); !reflect.DeepEqual(log.jammed[r], want) {
					t.Fatalf("round %d jammed %v, want %v (previous round's counts %v)", r+1, log.jammed[r], want, cnt)
				}
			}
		})
	}
}
