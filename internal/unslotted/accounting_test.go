package unslotted_test

import (
	"testing"

	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/sim"
	"wsync/internal/unslotted"
)

// TestNodeRoundAccounting checks that an unslotted run moves none of the
// three process-wide node-round counters a report sums (sim, multihop and
// rendezvous). It must not run in parallel with other engine tests, since
// it reads process-wide counters.
func TestNodeRoundAccounting(t *testing.T) {
	counters := func() [3]uint64 {
		return [3]uint64{sim.TotalNodeRounds(), multihop.TotalNodeRounds(), rendezvous.TotalNodeRounds()}
	}
	before := counters()
	res, err := unslotted.Run(goldenCase(4, "staggered", "trapdoor", "prefix", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("run executed no rounds")
	}
	if after := counters(); after != before {
		t.Fatalf("node-round counters moved: %v -> %v", before, after)
	}
}
