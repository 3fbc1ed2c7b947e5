package unslotted_test

import (
	"slices"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/freqset"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
	"wsync/internal/unslotted"
)

// lastSpy wraps an adversary and checks each of its choices from
// half-slot 2 on against the previous half-slot's record, which it must
// be handed as History.Last.
type lastSpy struct {
	t         *testing.T
	inner     sim.Adversary
	f, budget int
	// checked counts the checked half-slots; offPrefix those whose jammed
	// set was not the low prefix 1..budget.
	checked, offPrefix int
}

func (s *lastSpy) Disrupt(r uint64, h *sim.History) *freqset.Set {
	set := s.inner.Disrupt(r, h)
	if r < 2 {
		return set
	}
	if h.Last == nil || h.Last.Round != r-1 {
		s.t.Fatalf("half-slot %d: History.Last = %+v, want the record of half-slot %d", r, h.Last, r-1)
	}
	// The budget busiest transmit frequencies of the record, ties toward
	// the lower frequency.
	cnt := make([]int, s.f+1)
	for _, a := range h.Last.Actions {
		if a.Transmit {
			cnt[a.Freq]++
		}
	}
	order := make([]int, s.f)
	for i := range order {
		order[i] = i + 1
	}
	slices.SortStableFunc(order, func(a, b int) int { return cnt[b] - cnt[a] })
	want := order[:s.budget]
	slices.Sort(want)
	if got := set.Slice(); !slices.Equal(got, want) {
		s.t.Fatalf("half-slot %d: jammed %v, want the busiest %v of counts %v", r, got, want, cnt)
	}
	s.checked++
	if want[len(want)-1] != s.budget {
		s.offPrefix++
	}
	return set
}

// TestReactiveSeesLastHalfSlot runs the reactive jammer on phase-shifted
// Trapdoor nodes: from half-slot 2 on it must see the previous half-slot's
// record and jam its busiest frequencies, not fall back to the low prefix
// it uses before any history exists.
func TestReactiveSeesLastHalfSlot(t *testing.T) {
	p := trapdoor.Params{N: 8, F: 6, T: 2}
	spy := &lastSpy{t: t, inner: adversary.NewReactive(p.F, p.T), f: p.F, budget: p.T}
	res, err := unslotted.Run(&unslotted.Config{
		F:    p.F,
		T:    p.T,
		Seed: 7,
		N:    4,
		NewAgent: func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		},
		Phase:           unslotted.RandomPhases(4, 3),
		ActivationRound: func(i int) uint64 { return 1 + 2*uint64(i) },
		Adversary:       spy,
		MaxRounds:       400,
		RunToMax:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int(2*res.Rounds) - 1; spy.checked != want {
		t.Fatalf("checked %d half-slots, want %d", spy.checked, want)
	}
	if spy.offPrefix == 0 {
		t.Fatal("the reactive jammer only ever jammed the low prefix")
	}
}
