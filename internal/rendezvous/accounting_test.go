package rendezvous

import (
	"testing"

	"wsync/internal/multihop"
	"wsync/internal/sim"
)

// counters reads the three process-wide node-round counters.
func counters() [3]uint64 {
	return [3]uint64{TotalNodeRounds(), sim.TotalNodeRounds(), multihop.TotalNodeRounds()}
}

// TestNodeRoundAccounting checks that one game adds exactly its
// NodeRounds to TotalNodeRounds and nothing to the sim and multihop
// counters, which a report sums with it; a game that fails moves no
// counter. It must not run in parallel with other engine tests, since it
// reads process-wide counters.
func TestNodeRoundAccounting(t *testing.T) {
	parties := make([]Party, 5)
	for p := range parties {
		parties[p] = Party{Strategy: Uniform{M: 8, P: 0.5}, Wake: uint64(1 + 2*p), Mask: []int{1 + p}}
	}
	before := counters()
	res, err := Run(&Config{
		F:         8,
		Parties:   parties,
		Jammer:    NewGreedy(8, 2),
		Masks:     &scriptedMasks{script: map[uint64][2][][2]int{2: {[][2]int{{0, 3}}, nil}}},
		MaxRounds: 1 << 12,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := counters()
	if got := after[0] - before[0]; got != res.NodeRounds || got == 0 {
		t.Fatalf("rendezvous counter moved by %d, game ran %d node-rounds", got, res.NodeRounds)
	}
	if after[1] != before[1] || after[2] != before[2] {
		t.Fatalf("sim/multihop counters moved: %v -> %v", before, after)
	}

	uniform := Uniform{M: 3, P: 1}
	failing := map[string]*Config{
		"out-of-band pick": {
			F:         3,
			Parties:   []Party{{Strategy: uniform}, {Strategy: badStrategy{}, Wake: 3}},
			MaxRounds: 10,
		},
		"double block": {
			F:       3,
			Parties: []Party{{Strategy: uniform}, {Strategy: uniform}},
			Masks: &scriptedMasks{script: map[uint64][2][][2]int{
				2: {[][2]int{{0, 1}}, nil},
				3: {[][2]int{{0, 1}}, nil},
			}},
			MaxRounds: 10,
		},
	}
	for name, cfg := range failing {
		before := counters()
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if after := counters(); after != before {
			t.Fatalf("%s: counters moved %v -> %v", name, before, after)
		}
	}
}
