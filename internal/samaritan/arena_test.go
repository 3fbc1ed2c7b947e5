package samaritan

import (
	"reflect"
	"testing"

	"wsync/internal/rng"
	"wsync/internal/sim"
)

// TestArenaMatchesDirectConstruction pins the arena contract: an arena-built
// run (which also exercises the batch-stepping path) is bit-identical to a
// MustNew-built run (which steps per node), and to an arena-built run with
// batching disabled. The shared narrow-band table and the reused tally maps
// must be observationally invisible.
func TestArenaMatchesDirectConstruction(t *testing.T) {
	p := Params{N: 8, F: 8, T: 2}
	run := func(seed uint64, newAgent func(sim.NodeID, uint64, *rng.Rand) sim.Agent, noBatch bool) *sim.Result {
		res, err := sim.Run(&sim.Config{
			F:         8,
			T:         2,
			Seed:      seed,
			NewAgent:  newAgent,
			Schedule:  sim.Simultaneous{Count: 8},
			MaxRounds: 200000,
			NoBatch:   noBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for seed := uint64(1); seed <= 2; seed++ {
		direct := run(seed, func(id sim.NodeID, act uint64, r *rng.Rand) sim.Agent {
			return MustNew(p, r)
		}, false)
		pooled := run(seed, MustNewArena(p, 8).NewAgent, false)
		pooledNoBatch := run(seed, MustNewArena(p, 8).NewAgent, true)
		if !reflect.DeepEqual(direct, pooled) {
			t.Fatalf("seed %d: arena result differs from direct construction", seed)
		}
		if !reflect.DeepEqual(direct, pooledNoBatch) {
			t.Fatalf("seed %d: NoBatch arena result differs from direct construction", seed)
		}
	}
}

// TestArenaNewAgentAllocs pins that arena construction shares the arena's
// one schedule and reuses the slot's tally map: building a node in its
// slot allocates nothing.
func TestArenaNewAgentAllocs(t *testing.T) {
	a := MustNewArena(Params{N: 1024, F: 128, T: 64}, 4)
	r := rng.New(1)
	if allocs := testing.AllocsPerRun(100, func() { a.NewAgent(2, 0, r) }); allocs != 0 {
		t.Fatalf("Arena.NewAgent allocates %v times per call, want 0", allocs)
	}
}
