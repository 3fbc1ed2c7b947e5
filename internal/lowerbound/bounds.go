package lowerbound

import "math"

// log2 clamps its argument so the evaluators behave at tiny parameters.
func log2(x float64) float64 {
	if x < 2 {
		x = 2
	}
	return math.Log2(x)
}

// Theorem1Rounds evaluates Ω(log²N / ((F−t)·loglogN)), the regular-protocol
// lower bound, without its constant.
func Theorem1Rounds(n, f, t float64) float64 {
	lg := log2(n)
	ll := log2(lg)
	if ll < 1 {
		ll = 1
	}
	if f-t < 1 {
		return math.Inf(1)
	}
	return lg * lg / ((f - t) * ll)
}

// Theorem4Rounds evaluates Ω(Ft/(F−t) · log(1/ε)), the general two-node
// lower bound, without its constant.
func Theorem4Rounds(f, t, eps float64) float64 {
	if f-t < 1 || eps <= 0 || eps >= 1 {
		return math.Inf(1)
	}
	// The bound degenerates at t = 0 (nothing to jam): rendezvous on F
	// channels still needs Ω(F·log(1/ε)/F) = Ω(log 1/ε) rounds; keep the
	// formula's spirit with t clamped to 1.
	if t < 1 {
		t = 1
	}
	return f * t / (f - t) * math.Log(1/eps)
}

// Theorem10Rounds evaluates the Trapdoor Protocol's upper bound
// O(F/(F−t)·log²N + Ft/(F−t)·logN) without its constant.
func Theorem10Rounds(n, f, t float64) float64 {
	if f-t < 1 {
		return math.Inf(1)
	}
	lg := log2(n)
	return f/(f-t)*lg*lg + f*t/(f-t)*lg
}

// Theorem18GoodRounds evaluates the Good Samaritan good-execution bound
// O(t'·log³N) without its constant (t' clamped to 1).
func Theorem18GoodRounds(n, tPrime float64) float64 {
	if tPrime < 1 {
		tPrime = 1
	}
	lg := log2(n)
	return tPrime * lg * lg * lg
}

// Theorem18GeneralRounds evaluates the Good Samaritan general bound
// O(F·log³N) without its constant.
func Theorem18GeneralRounds(n, f float64) float64 {
	lg := log2(n)
	return f * lg * lg * lg
}

// Lemma2Bound returns the Lemma 2 lower bound 2^{−s} on the probability
// that no bin receives exactly one ball, for s nontrivial bins.
func Lemma2Bound(s int) float64 {
	if s < 0 {
		s = 0
	}
	return math.Pow(2, -float64(s))
}
