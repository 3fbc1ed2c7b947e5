package samaritan

import (
	"fmt"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// TestSoakGrid runs the Good Samaritan Protocol across good-case and
// fallback-case combinations, asserting liveness (probability 1) as a hard
// requirement and budgeting the w.h.p. agreement failures. Skipped under
// -short.
func TestSoakGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("soak grid")
	}
	type grid struct {
		nBound, active, f, tBudget, tPrime int
		sched                              string
	}
	var cases []grid
	for _, band := range []struct{ f, tBudget int }{{8, 4}, {16, 8}} {
		for _, tp := range []int{1, band.tBudget / 2, band.tBudget} {
			for _, sched := range []string{"simultaneous", "staggered"} {
				for _, active := range []int{2, 4} {
					cases = append(cases, grid{16, active, band.f, band.tBudget, tp, sched})
				}
			}
		}
	}
	expectedFailures := 0.0
	for _, c := range cases {
		expectedFailures += 1 / float64(c.nBound)
	}
	budget := int(3*expectedFailures) + 1

	type outcome struct {
		name string
		bad  bool
	}
	results := make([]outcome, len(cases))
	for i, c := range cases {
		i, c := i, c
		name := fmt.Sprintf("F%d_t%d_tp%d_n%d_%s", c.f, c.tBudget, c.tPrime, c.active, c.sched)
		results[i].name = name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := Params{N: c.nBound, F: c.f, T: c.tBudget}
			var sched sim.Schedule = sim.Simultaneous{Count: c.active}
			if c.sched == "staggered" {
				sched = sim.Staggered{Count: c.active, Gap: p.EpochLen(1) / 2}
			}
			check := props.NewChecker(c.active)
			cfg := &sim.Config{
				F:    c.f,
				T:    c.tBudget,
				Seed: uint64(4000 + i),
				NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
					return MustNew(p, r)
				},
				Schedule:     sched,
				Adversary:    adversary.NewPrefix(c.f, c.tPrime),
				MaxRounds:    1 << 23,
				Observers:    []sim.Observer{check},
				WireFidelity: true,
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllSynced {
				t.Fatalf("not synced after %d rounds (liveness is probability 1)", res.Stats.Rounds)
			}
			if !check.OK() || res.Leaders != 1 {
				results[i].bad = true
				t.Logf("w.h.p. failure: leaders=%d violations=%d", res.Leaders, check.Count())
			}
		})
	}
	t.Cleanup(func() {
		failures := 0
		for _, r := range results {
			if r.bad {
				failures++
				t.Logf("grid failure at %s", r.name)
			}
		}
		if failures > budget {
			t.Errorf("%d w.h.p. failures across %d grid points, budget %d (expected ~%.1f)",
				failures, len(cases), budget, expectedFailures)
		}
	})
}
