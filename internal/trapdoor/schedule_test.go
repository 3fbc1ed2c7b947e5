package trapdoor

import (
	"math"
	"testing"
)

// TestScheduleMatchesParams is the oracle for the per-node schedule table:
// over a grid of parameters, every entry newSchedule derives equals the
// public Params method it caches, probabilities bit for bit.
func TestScheduleMatchesParams(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 64, 1000, 1024, 4096} {
		for _, f := range []int{1, 2, 7, 128} {
			for _, tt := range []int{0, f - 1} {
				for _, cEpoch := range []int{0, 3} {
					for _, cFinal := range []int{0, 11} {
						for _, ft := range []bool{false, true} {
							p := Params{N: n, F: f, T: tt, CEpoch: cEpoch, CFinal: cFinal, FaultTolerant: ft}
							checkSchedule(t, p)
						}
					}
				}
			}
		}
	}
}

func checkSchedule(t *testing.T, p Params) {
	t.Helper()
	s := newSchedule(p)
	if s.Params != p.withDefaults() {
		t.Fatalf("%+v: schedule params %+v, want %+v", p, s.Params, p.withDefaults())
	}
	if s.lgN != p.LgN() {
		t.Fatalf("%+v: lgN = %d, want %d", p, s.lgN, p.LgN())
	}
	if s.epochLen != p.EpochLen() {
		t.Fatalf("%+v: epochLen = %d, want %d", p, s.epochLen, p.EpochLen())
	}
	if s.finalLen != p.FinalEpochLen() {
		t.Fatalf("%+v: finalLen = %d, want %d", p, s.finalLen, p.FinalEpochLen())
	}
	if len(s.prob) != p.LgN()+1 {
		t.Fatalf("%+v: %d probabilities, want %d", p, len(s.prob), p.LgN()+1)
	}
	for e, got := range s.prob {
		if want := p.BroadcastProb(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: prob[%d] = %v, want %v", p, e, got, want)
		}
	}
}
