package lowerbound

import (
	"testing"

	"wsync/internal/rng"
	"wsync/internal/trapdoor"
)

// TestRegularAllocs pins that following a regular schedule allocates
// nothing: Agent.Step (the Theorem 1 runs) and the rendezvous strategy's
// Pick and Prob (the Theorem 4 and R-series games) run once per node per
// round, for each of the three schedules.
func TestRegularAllocs(t *testing.T) {
	regs := []struct {
		name string
		reg  Regular
	}{
		{"uniform", UniformRegular{M: 4, P: 0.5}},
		{"trapdoor", NewTrapdoorRegular(trapdoor.Params{N: 64, F: 8, T: 2})},
		{"unknown-t", UnknownT{F: 8, Dwell: 4}},
	}
	for _, rc := range regs {
		a := NewAgent(rc.reg, rng.New(1))
		s := StrategyFromRegular(rc.reg)
		r := rng.New(2)
		local := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			local++
			a.Step(local)
			f, _ := s.Pick(local, r)
			_ = s.Prob(local, f)
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per round, want 0", rc.name, allocs)
		}
	}
}
