package samaritan

import (
	"math"
	"testing"

	"wsync/internal/freqdist"
)

// TestScheduleMatchesParams is the oracle for the per-node schedule table:
// over a grid of parameters, every entry newSchedule derives equals the
// public Params method it caches, probabilities bit for bit.
func TestScheduleMatchesParams(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 64, 1000, 1024, 4096} {
		for _, f := range []int{1, 2, 6, 128} {
			for _, tt := range []int{0, f / 2} {
				for _, cEpoch := range []int{0, 3} {
					for logPow := 0; logPow <= 4; logPow++ {
						for _, shift := range []int{0, 2} {
							for _, factor := range []int{0, 5} {
								p := Params{N: n, F: f, T: tt, CEpoch: cEpoch, EpochLogPower: logPow,
									ThresholdShift: shift, FallbackFactor: factor}
								checkSchedule(t, p)
							}
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
	if s.lgN != p.LgN() || s.lgF != p.LgF() || s.epochsPerSuper != p.EpochsPerSuper() {
		t.Fatalf("%+v: lgN, lgF, epochsPerSuper = %d, %d, %d, want %d, %d, %d", p,
			s.lgN, s.lgF, s.epochsPerSuper, p.LgN(), p.LgF(), p.EpochsPerSuper())
	}
	if s.fallbackLen != p.FallbackEpochLen() {
		t.Fatalf("%+v: fallbackLen = %d, want %d", p, s.fallbackLen, p.FallbackEpochLen())
	}
	if len(s.epochLen) != p.LgF()+1 || len(s.threshold) != p.LgF()+1 {
		t.Fatalf("%+v: %d epoch lengths and %d thresholds, want %d", p, len(s.epochLen), len(s.threshold), p.LgF()+1)
	}
	for k := range s.epochLen {
		if s.epochLen[k] != p.EpochLen(k) {
			t.Fatalf("%+v: epochLen[%d] = %d, want %d", p, k, s.epochLen[k], p.EpochLen(k))
		}
		if s.threshold[k] != p.SuccessThreshold(k) {
			t.Fatalf("%+v: threshold[%d] = %d, want %d", p, k, s.threshold[k], p.SuccessThreshold(k))
		}
	}
	if len(s.prob) != p.LgN()+3 {
		t.Fatalf("%+v: %d probabilities, want %d", p, len(s.prob), p.LgN()+3)
	}
	for e, got := range s.prob {
		if want := p.BroadcastProb(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: prob[%d] = %v, want %v", p, e, got, want)
		}
	}
	if len(s.narrow) != p.LgF() {
		t.Fatalf("%+v: %d narrow bands, want %d", p, len(s.narrow), p.LgF())
	}
	for k := 1; k <= p.LgF(); k++ {
		if want := freqdist.NewUniform(1, min(1<<k, p.F)); s.narrow[k-1] != want {
			t.Fatalf("%+v: narrow[%d] = %+v, want %+v", p, k-1, s.narrow[k-1], want)
		}
	}
}
