package harness

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// TestCatalogueAgentsBatch guards the batch path: every agent factory the
// catalogue hands the engine for the paper's protocols and the arena'd
// baselines builds sim.BatchAgents of one cohort per engine run, and no
// two runs share that cohort (an arena belongs to one run, and parallel
// trials must never share one). single-frequency, which has no arena, is
// the one exception.
func TestCatalogueAgentsBatch(t *testing.T) {
	const n = 4
	tp := trapdoor.Params{N: 16, F: 8, T: 2}
	sp := samaritan.Params{N: 16, F: 16, T: 8}
	sites := []protocol{
		{"trapdoorRun", func(n int) newAgentFunc { return trapdoorConfig(tp, n, nil, 1, 1).NewAgent }},
		{"samaritanRun", func(n int) newAgentFunc {
			return samaritanConfig(sp, sim.Simultaneous{Count: n}, nil, 1, 1).NewAgent
		}},
		{"L9", func(n int) newAgentFunc { return l9Config(tp, n, 1, &WeightObserver{}).NewAgent }},
	}
	for _, table := range []struct {
		id     string
		protos []protocol
	}{
		{"X2", x2Protocols(64, 8, 2)},
		{"X4", x4TrapdoorProtocols(64, 8, 2)},
		{"X4", x4SamaritanProtocols(16, 16, 8)},
		{"X8", x8Protocols(tp, adversary.Names())},
	} {
		for _, p := range table.protos {
			sites = append(sites, protocol{table.id + "/" + p.name, p.mk})
		}
	}
	const solo = "X2/single-frequency"
	sawSolo := false
	for _, site := range sites {
		if site.name == solo {
			sawSolo = true
			continue
		}
		cohort := func(ag sim.Agent) any {
			if ba, ok := ag.(sim.BatchAgent); ok {
				return ba.Cohort()
			}
			return nil
		}
		run := site.mk(n)
		first := cohort(run(0, 1, rng.New(1)))
		if first == nil {
			t.Errorf("%s: node 0 does not batch-step (not a BatchAgent, or nil Cohort)", site.name)
			continue
		}
		for id := 1; id < n; id++ {
			if c := cohort(run(sim.NodeID(id), 1, rng.New(uint64(id)+1))); c != first {
				t.Errorf("%s: node %d is outside node 0's cohort", site.name, id)
			}
		}
		if cohort(site.mk(n)(0, 1, rng.New(1))) == first {
			t.Errorf("%s: two engine runs share one arena", site.name)
		}
	}
	if !sawSolo {
		t.Errorf("%s left the catalogue; drop it from this test's exceptions", solo)
	}
}
