package sim

import (
	"wsync/internal/medium"
	"wsync/internal/rng"
)

// Constructors for the oracle tests in package sim_test. Those tests
// import internal/simtest, which imports sim, so they cannot live in
// package sim.

func NewRandomAgent(r *rng.Rand, f int) Agent      { return &randomAgent{r: r, f: f} }
func NewSteadyAgent(r *rng.Rand, f int) Agent      { return &steadyAgent{r: r, f: f} }
func NewRandomAdv(f, t int, seed uint64) Adversary { return &randomAdv{f: f, t: t, r: rng.New(seed)} }
func NewTestGrid(w, h int) medium.Graph            { return newAllocGrid(w, h) }
