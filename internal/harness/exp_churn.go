package harness

import (
	"fmt"
	"sync/atomic"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/multihop"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// runX9 measures multi-hop relay synchronization when the graph itself is
// the adversary: random-waypoint mobility at increasing speed, i.i.d.
// link flips at increasing rate, partition-and-heal schedules of
// increasing outage, and min-cut-targeted sabotage. Convergence is not
// guaranteed under churn — the agreed column reports how many trials got
// there, and capped trials count at the cap rather than failing the run.
func runX9(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "X9",
		Title:   "Dynamic topologies: synchronization under churn (X9)",
		Columns: []string{"churn", "nodes", "median rounds", "agreed", "synced %", "churn rounds/run", "edge flux/round"},
	}
	sparse := trapdoor.Params{N: 8, F: 6, T: 2}
	geo := trapdoor.Params{N: 64, F: 6, T: 2}
	type churnCase struct {
		name      string
		n         int
		p         trapdoor.Params
		maxRounds uint64
		mk        func(seed uint64) churn.Model
	}
	// Order is load-bearing: quick runs the first two cases, the default
	// tier this whole list, and the full tier appends — point keys are
	// index-based, so only appending keeps historical trial seeds stable.
	cases := []churnCase{
		{"flip-grid-4x4-rate0.02", 16, sparse, 1 << 17,
			func(seed uint64) churn.Model { return churn.NewFlip(multihop.Grid(4, 4), 0.02, seed) }},
		{"partition-grid-4x4-down2", 16, sparse, 1 << 17,
			func(uint64) churn.Model { return churn.NewPartition(multihop.Grid(4, 4), 12, 2) }},
		{"flip-grid-4x4-rate0.10", 16, sparse, 1 << 17,
			func(seed uint64) churn.Model { return churn.NewFlip(multihop.Grid(4, 4), 0.10, seed) }},
		{"partition-grid-4x4-down6", 16, sparse, 1 << 17,
			func(uint64) churn.Model { return churn.NewPartition(multihop.Grid(4, 4), 12, 6) }},
		{"waypoint-64-speed0.005", 64, geo, 1 << 17,
			func(seed uint64) churn.Model { return churn.NewWaypoint(64, 0.22, 0.005, 8, seed) }},
		{"waypoint-64-speed0.02", 64, geo, 1 << 17,
			func(seed uint64) churn.Model { return churn.NewWaypoint(64, 0.22, 0.02, 8, seed) }},
		{"targeted-grid-4x4-budget2", 16, sparse, 1 << 17,
			func(uint64) churn.Model { return churn.NewTargetedCut(multihop.Grid(4, 4), 2, 8, 4) }},
	}
	if o.Full {
		// Full tier: mobile geometric graphs at scale. Relay agreement at
		// N=4096 takes thousands of rounds even on a static graph, so these
		// rows are fixed-horizon sweeps: run 384 churned rounds (stopping
		// early on the off chance full agreement lands) and report how far
		// synchronization penetrated. They deliberately keep the sparse
		// participant bound even though geometric neighborhoods oversubscribe
		// it — elections then finish inside the horizon (a majority of nodes
		// sync) and the penetration number measures scheme merging, the part
		// of the protocol mobility actually stresses. The point of the rows
		// is the sweep itself — per-round delta mutations on a 4096-node
		// geometric graph are what the incremental topology API keeps inside
		// the -full tier's wall-clock budget.
		cases = append(cases,
			churnCase{"waypoint-rgg-1024", 1024, sparse, 384,
				func(seed uint64) churn.Model { return churn.NewWaypoint(1024, 0.06, 0.003, 64, seed) }},
			churnCase{"waypoint-rgg-4096", 4096, sparse, 384,
				func(seed uint64) churn.Model { return churn.NewWaypoint(4096, 0.03, 0.003, 64, seed) }},
		)
	}
	if o.quick() {
		cases = cases[:2]
	}
	for ci, c := range cases {
		ci, c := ci, c
		p := c.p
		var agreedRuns, churnRounds, churnEdges, totalRounds, syncedNodes atomic.Uint64
		s, err := o.summarizeTrials(o.trials(), func(i int) (float64, error) {
			model := c.mk(o.TrialSeed(pointKey(ptX9Model, uint64(ci)), i))
			nodes := make([]*multihop.RelayNode, c.n)
			agreed := func(uint64) bool {
				var scheme, value uint64
				for idx, n := range nodes {
					if n == nil {
						return false
					}
					out := n.Output()
					if !out.Synced {
						return false
					}
					if idx == 0 {
						scheme, value = n.Scheme(), out.Value
						continue
					}
					if n.Scheme() != scheme || out.Value != value {
						return false
					}
				}
				return true
			}
			res, err := multihop.Run(&multihop.Config{
				F: p.F, T: p.T,
				Seed:     o.TrialSeed(pointKey(ptX9Sim, uint64(ci)), i),
				Topology: model.Topology(),
				Churn:    model,
				NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
					n := multihop.MustNewRelay(p, r)
					nodes[id] = n
					return n
				},
				Adversary: adversary.NewRandom(p.F, p.T, o.TrialSeed(pointKey(ptX9Adversary, uint64(ci)), i)),
				MaxRounds: c.maxRounds,
				RunToMax:  true,
				StopWhen:  agreed,
			})
			if err != nil {
				return 0, err
			}
			o.count(res.NodeRounds)
			if !res.HitMaxRounds && agreed(res.Rounds) {
				agreedRuns.Add(1)
			}
			// Penetration: how many nodes ended the run synchronized onto
			// the plurality scheme. Converged trials score n by definition;
			// fixed-horizon trials report how far agreement spread.
			schemes := make(map[uint64]uint64, 8)
			for _, n := range nodes {
				if n != nil && n.Output().Synced {
					schemes[n.Scheme()]++
				}
			}
			var modal uint64
			for _, count := range schemes {
				if count > modal {
					modal = count
				}
			}
			syncedNodes.Add(modal)
			churnRounds.Add(res.ChurnRounds)
			churnEdges.Add(res.ChurnEdges)
			totalRounds.Add(res.Rounds)
			return float64(res.Rounds), nil
		})
		if err != nil {
			return nil, err
		}
		trials := uint64(o.trials())
		flux := float64(churnEdges.Load()) / float64(totalRounds.Load())
		synced := 100 * float64(syncedNodes.Load()) / float64(uint64(c.n)*trials)
		tbl.AddRow(c.name, c.n, s.Median,
			fmt.Sprintf("%d/%d", agreedRuns.Load(), trials),
			fmt.Sprintf("%.1f", synced),
			churnRounds.Load()/trials, fmt.Sprintf("%.2f", flux))
	}
	tbl.Notes = append(tbl.Notes,
		"relay agreement (X7's protocol) on graphs that move under it: waypoint mobility, link flips, partitions, targeted cuts",
		"the engine applies each round's edge deltas to sorted adjacency in place and swaps the graph into the resolver (SetGraph)",
		"capped trials report the round cap instead of failing: under churn, non-convergence is a measurement, not an error",
		"synced % is the plurality-scheme penetration at the end of the run; the full tier's fixed-horizon scale rows (384 rounds at N=1024/4096) measure it instead of waiting out full agreement")
	return tbl, nil
}
