// Package simtest is the brute-force reference for the round core's
// reception rule, for tests only: no non-test file may import it
// (TestNoProductionImporter). A listener hears a message only when
// exactly one of its neighbors (on the complete graph, every other awake
// node) transmits on its frequency and that frequency is not disrupted
// for it, globally or by a sim.ListenerDisrupter. Resolve applies the rule
// to one round by counting each listener's transmitting neighbors, and
// shares no code with internal/medium; Oracle is a sim.Observer that
// checks every round of a run against it and totals the rule's counts.
package simtest

import (
	"fmt"
	"slices"
	"sort"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/sim"
)

// Round is one round resolved by the rule: deliveries in ascending
// listener order, the ascending clear frequencies (complete graph only),
// and the round's counts as sim.RunGraph or sim.Run would add them.
type Round struct {
	Deliveries []sim.Delivery
	Clear      []int
	Stats      sim.Stats
}

// Resolve applies the reception rule to one round: the awake nodes'
// actions, the adversary's disrupted set, the adversary itself when it
// disrupts per listener (nil otherwise), and the round's graph (nil is
// the complete graph).
func Resolve(actions []sim.ActionRecord, disrupted *freqset.Set, jam sim.ListenerDisrupter, g medium.Graph) Round {
	byNode := make(map[int]sim.ActionRecord, len(actions))
	ids := make([]int, 0, len(actions))
	txCount := make(map[int]int)
	for _, a := range actions {
		byNode[int(a.Node)] = a
		ids = append(ids, int(a.Node))
		if a.Transmit {
			txCount[a.Freq]++
		}
	}
	sort.Ints(ids)
	rd := Round{Stats: sim.Stats{Rounds: 1, NodeRounds: uint64(len(actions))}}
	for _, i := range ids {
		a := byNode[i]
		if a.Transmit {
			rd.Stats.Transmissions++
			continue
		}
		neighbors := ids
		if g != nil {
			neighbors = g.Neighbors(i)
		}
		from, count := 0, 0
		for _, w := range neighbors {
			if b, ok := byNode[w]; ok && w != i && b.Transmit && b.Freq == a.Freq {
				from, count = w, count+1
			}
		}
		switch {
		case count == 0:
		case count >= 2:
			if g != nil {
				rd.Stats.Collisions++
			}
		case disrupted.Contains(a.Freq), jam != nil && jam.DisruptedAt(a.Node, a.Freq):
		default:
			rd.Deliveries = append(rd.Deliveries, sim.Delivery{From: sim.NodeID(from), To: a.Node, Freq: a.Freq})
		}
	}
	rd.Stats.Deliveries = uint64(len(rd.Deliveries))
	if g != nil {
		return rd
	}
	freqs := make([]int, 0, len(txCount))
	for f := range txCount {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)
	for _, f := range freqs {
		switch {
		case txCount[f] >= 2:
			rd.Stats.Collisions++
		case disrupted.Contains(f):
			rd.Stats.DisruptedLosses++
		default:
			rd.Clear = append(rd.Clear, f)
			rd.Stats.ClearBroadcasts++
		}
	}
	return rd
}

// Check resolves rec's round by the rule and reports whether rec's
// deliveries or clear frequencies differ from it.
func Check(rec *sim.RoundRecord, jam sim.ListenerDisrupter, g medium.Graph) (Round, error) {
	rd := Resolve(rec.Actions, rec.Disrupted, jam, g)
	switch {
	case !slices.Equal(rec.Deliveries, rd.Deliveries):
		return rd, fmt.Errorf("deliveries %v, the rule gives %v", rec.Deliveries, rd.Deliveries)
	case !slices.Equal(rec.Clear, rd.Clear):
		return rd, fmt.Errorf("clear %v, the rule gives %v", rec.Clear, rd.Clear)
	}
	return rd, nil
}

// Oracle checks every round of a run against the rule. Graph returns
// round r's graph (a nil func or Graph: the complete graph); Jam is the
// run's adversary if it is a sim.ListenerDisrupter.
type Oracle struct {
	Graph func(r uint64) medium.Graph
	Jam   sim.ListenerDisrupter

	stats      sim.Stats
	firstClear uint64
	err        error
}

// ObserveRound checks one round. After the first divergence it checks
// nothing more.
func (o *Oracle) ObserveRound(rec *sim.RoundRecord) {
	if o.err != nil {
		return
	}
	var g medium.Graph
	if o.Graph != nil {
		g = o.Graph(rec.Round)
	}
	rd, err := Check(rec, o.Jam, g)
	if err != nil {
		o.err = fmt.Errorf("round %d: %w", rec.Round, err)
		return
	}
	s := &o.stats
	s.Rounds++
	s.NodeRounds += rd.Stats.NodeRounds
	s.Transmissions += rd.Stats.Transmissions
	s.Collisions += rd.Stats.Collisions
	s.DisruptedLosses += rd.Stats.DisruptedLosses
	s.Deliveries += rd.Stats.Deliveries
	s.ClearBroadcasts += rd.Stats.ClearBroadcasts
	if o.firstClear == 0 && len(rd.Clear) > 0 {
		o.firstClear = rec.Round
	}
}

// Err returns the first divergence, or nil.
func (o *Oracle) Err() error { return o.err }

// Stats returns the rule's totals over the rounds observed so far.
func (o *Oracle) Stats() sim.Stats { return o.stats }

// CheckResult returns the first divergence, or, failing that, the first
// way res's Stats or FirstClear differ from the rule's totals.
func (o *Oracle) CheckResult(res *sim.Result) error {
	switch {
	case o.err != nil:
		return o.err
	case res.Stats != o.stats:
		return fmt.Errorf("stats %+v, the rule gives %+v", res.Stats, o.stats)
	case res.FirstClear != o.firstClear:
		return fmt.Errorf("first clear round %d, the rule gives %d", res.FirstClear, o.firstClear)
	}
	return nil
}
