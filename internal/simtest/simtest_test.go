package simtest

import (
	"testing"

	"wsync/internal/freqset"
	"wsync/internal/medium"
	"wsync/internal/sim"
)

// blockJam disrupts nothing globally and blocks node 2 on frequency 1.
type blockJam struct{}

func (blockJam) Disrupt(uint64, *sim.History) *freqset.Set { return nil }
func (blockJam) DisruptedAt(i sim.NodeID, f int) bool      { return i == 2 && f == 1 }

// selfTestRound is one round on F = 4 with frequency 3 disrupted:
// node 0 transmits alone on 1 to listeners 1 and 2, nodes 3 and 4
// collide on 2 at listener 5, node 6 is jammed on 3 at listener 7, and
// node 8 transmits alone on 4 to nobody. The engine's record of it
// delivers 0 → 1 and 0 → 2 and clears 1 and 4.
func selfTestRound() *sim.RoundRecord {
	actions := []sim.ActionRecord{
		{Node: 0, Freq: 1, Transmit: true}, {Node: 1, Freq: 1}, {Node: 2, Freq: 1},
		{Node: 3, Freq: 2, Transmit: true}, {Node: 4, Freq: 2, Transmit: true}, {Node: 5, Freq: 2},
		{Node: 6, Freq: 3, Transmit: true}, {Node: 7, Freq: 3},
		{Node: 8, Freq: 4, Transmit: true},
	}
	return &sim.RoundRecord{
		Round:      1,
		Disrupted:  freqset.FromSlice(4, []int{3}),
		Actions:    actions,
		Deliveries: []sim.Delivery{{From: 0, To: 1, Freq: 1}, {From: 0, To: 2, Freq: 1}},
		Clear:      []int{1, 4},
	}
}

// TestOracleReportsDoctoredRounds hands the oracle a correct round, then
// copies of it doctored one way each, and requires it to accept the first
// and report every other. An oracle that cannot fail checks nothing.
func TestOracleReportsDoctoredRounds(t *testing.T) {
	clique := sim.NewClique(9)
	if _, err := Check(selfTestRound(), nil, nil); err != nil {
		t.Fatalf("correct complete-graph round reported: %v", err)
	}
	graphRound := func() *sim.RoundRecord {
		rec := selfTestRound()
		rec.Deliveries = rec.Deliveries[:1]
		rec.Clear = nil
		return rec
	}
	if _, err := Check(graphRound(), blockJam{}, clique); err != nil {
		t.Fatalf("correct round with the listener hook reported: %v", err)
	}
	unhooked := selfTestRound()
	unhooked.Clear = nil
	if _, err := Check(unhooked, nil, clique); err != nil {
		t.Fatalf("correct graph round without the hook reported: %v", err)
	}
	for _, tc := range []struct {
		name   string
		doctor func(*sim.RoundRecord)
		graph  bool
	}{
		{"dropped delivery", func(rec *sim.RoundRecord) { rec.Deliveries = rec.Deliveries[1:] }, false},
		{"wrong sender", func(rec *sim.RoundRecord) { rec.Deliveries[0].From = 8 }, false},
		{"delivery on a collided frequency", func(rec *sim.RoundRecord) {
			rec.Deliveries = append(rec.Deliveries, sim.Delivery{From: 3, To: 5, Freq: 2})
		}, false},
		{"delivery on a jammed frequency", func(rec *sim.RoundRecord) {
			rec.Deliveries = append(rec.Deliveries, sim.Delivery{From: 6, To: 7, Freq: 3})
		}, false},
		{"delivery the listener hook blocks", func(rec *sim.RoundRecord) {
			rec.Deliveries = append(rec.Deliveries, sim.Delivery{From: 0, To: 2, Freq: 1})
		}, true},
		{"missing clear entry", func(rec *sim.RoundRecord) { rec.Clear = rec.Clear[:1] }, false},
		{"extra clear entry", func(rec *sim.RoundRecord) { rec.Clear = []int{1, 2, 4} }, false},
		{"clear entry on a graph", func(rec *sim.RoundRecord) { rec.Clear = []int{1} }, true},
		{"deliveries out of listener order", func(rec *sim.RoundRecord) {
			rec.Deliveries[0], rec.Deliveries[1] = rec.Deliveries[1], rec.Deliveries[0]
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, o := selfTestRound(), &Oracle{}
			if tc.graph {
				rec, o = graphRound(), &Oracle{Graph: func(uint64) medium.Graph { return clique }, Jam: blockJam{}}
			}
			tc.doctor(rec)
			o.ObserveRound(rec)
			if o.Err() == nil {
				t.Fatal("the oracle accepted the doctored round")
			}
		})
	}
}

// TestOracleReportsStats checks the end-of-run comparison: the oracle's
// totals over a correct round match the engine's, and a Result whose
// Stats or FirstClear differ from them is reported.
func TestOracleReportsStats(t *testing.T) {
	o := &Oracle{}
	o.ObserveRound(selfTestRound())
	want := sim.Stats{Rounds: 1, NodeRounds: 9, Transmissions: 5, Collisions: 1,
		DisruptedLosses: 1, Deliveries: 2, ClearBroadcasts: 2}
	res := &sim.Result{Stats: want, FirstClear: 1}
	if err := o.CheckResult(res); err != nil {
		t.Fatalf("matching result reported: %v", err)
	}
	res.Stats.Collisions++
	if o.CheckResult(res) == nil {
		t.Fatal("a Result with one collision too many was accepted")
	}
	res.Stats.Collisions--
	res.FirstClear = 0
	if o.CheckResult(res) == nil {
		t.Fatal("a Result with no first clear round was accepted")
	}
}
