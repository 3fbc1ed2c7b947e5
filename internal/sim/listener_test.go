package sim

import (
	"strings"
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/rng"
)

// parityJam disrupts nothing globally and, per listener, every frequency
// with (node + frequency) divisible by 3.
type parityJam struct{}

func (parityJam) Disrupt(uint64, *History) *freqset.Set { return nil }
func (parityJam) DisruptedAt(i NodeID, f int) bool      { return (int(i)+f)%3 == 0 }

// TestListenerDisrupter checks the per-listener hook on a graph: with the
// same actions, the hooked run delivers exactly the unhooked run's
// deliveries that the hook does not name, on both resolvers, and the
// complete-graph Run rejects the hook.
func TestListenerDisrupter(t *testing.T) {
	const f = 5
	run := func(adv Adversary, m MediumPath) *traceObserver {
		obs := &traceObserver{}
		cfg := &Config{
			F:    f,
			Seed: 3,
			// steadyAgent's actions never depend on what it hears, so
			// every run below plays the same actions.
			NewAgent: func(_ NodeID, _ uint64, r *rng.Rand) Agent {
				return &steadyAgent{r: r, f: f}
			},
			Schedule:       Staggered{Count: 16, Gap: 1},
			Adversary:      adv,
			MaxRounds:      200,
			Observers:      []Observer{obs},
			RunToMaxRounds: true,
			Medium:         m,
		}
		if _, err := RunGraph(cfg, newAllocGrid(4, 4), nil); err != nil {
			t.Fatal(err)
		}
		return obs
	}
	var jam parityJam
	plain := run(nil, MediumIndexed)
	hooked := run(jam, MediumIndexed)
	if d := diffTraces(hooked, run(jam, MediumScan)); d != "" {
		t.Fatalf("indexed vs scan: %s", d)
	}
	var kept, dropped int
	for k, rec := range plain.rounds {
		var want []Delivery
		for _, d := range rec.deliveries {
			if jam.DisruptedAt(d.To, d.Freq) {
				dropped++
			} else {
				want = append(want, d)
			}
		}
		got := hooked.rounds[k].deliveries
		if len(got) != len(want) {
			t.Fatalf("round %d: %d deliveries, want %d", rec.round, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d delivery %d: %+v, want %+v", rec.round, j, got[j], want[j])
			}
		}
		kept += len(got)
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("degenerate case: %d deliveries kept, %d dropped", kept, dropped)
	}

	_, err := Run(&Config{
		F:         f,
		NewAgent:  func(_ NodeID, _ uint64, r *rng.Rand) Agent { return &steadyAgent{r: r, f: f} },
		Schedule:  Simultaneous{Count: 4},
		Adversary: jam,
	})
	if err == nil || !strings.Contains(err.Error(), "RunGraph") {
		t.Fatalf("Run accepted a ListenerDisrupter: %v", err)
	}
}
