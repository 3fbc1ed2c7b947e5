package sim

import (
	"testing"
	"testing/quick"

	"wsync/internal/freqset"
	"wsync/internal/rng"
)

// randomAdv is a small inline random jammer for property tests. It reads
// no history, and says so, so a run of it without observers takes the
// core's no-record path.
type randomAdv struct {
	f, t int
	r    *rng.Rand
	set  *freqset.Set
}

func (*randomAdv) IgnoresHistory() {}

func (a *randomAdv) Disrupt(round uint64, h *History) *freqset.Set {
	if a.set == nil {
		a.set = freqset.New(a.f)
	}
	a.set.Clear()
	for _, idx := range a.r.SampleK(a.f, a.t) {
		a.set.Add(idx + 1)
	}
	return a.set
}

// Property: adversary budgets are respected in every round (the engine
// panics otherwise), and nodes never receive their own transmissions.
func TestQuickNoSelfDelivery(t *testing.T) {
	prop := func(seed uint64) bool {
		bad := false
		ob := funcObs(func(rec *RoundRecord) {
			for _, d := range rec.Deliveries {
				if d.From == d.To {
					bad = true
				}
			}
		})
		cfg := &Config{
			F:    4,
			T:    1,
			Seed: seed,
			NewAgent: func(id NodeID, activation uint64, r *rng.Rand) Agent {
				return &randomAgent{r: r, f: 4}
			},
			Schedule:       Simultaneous{Count: 5},
			Adversary:      &randomAdv{f: 4, t: 1, r: rng.New(seed)},
			MaxRounds:      60,
			RunToMaxRounds: true,
			Observers:      []Observer{ob},
		}
		if _, err := Run(cfg); err != nil {
			return false
		}
		return !bad
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

type funcObs func(rec *RoundRecord)

func (f funcObs) ObserveRound(rec *RoundRecord) { f(rec) }
