package harness

import (
	"testing"

	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/sim"
)

// globalNodeRounds sums the engines' process-global node-round counters.
func globalNodeRounds() uint64 {
	return sim.TotalNodeRounds() + multihop.TotalNodeRounds() + rendezvous.TotalNodeRounds()
}

// TestMeterMatchesGlobals pins every engine call site in the catalogue:
// run alone, each experiment's RunMetered count must equal the delta of
// the three global counters around it. An engine run that reaches a global
// counter but not the meter (or the reverse) shows up here as a mismatch
// on the experiment that makes it. The test runs serially at top level,
// so no other test moves the globals meanwhile.
func TestMeterMatchesGlobals(t *testing.T) {
	opt := Options{Quick: true, Trials: 2, Seed: 1, Parallelism: 2}
	for _, e := range All() {
		before := globalNodeRounds()
		_, metered, err := e.RunMetered(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if delta := globalNodeRounds() - before; metered != delta {
			t.Errorf("%s: meter counted %d node-rounds, global counters moved %d", e.ID, metered, delta)
		}
	}
}
