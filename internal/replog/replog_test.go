package replog

import (
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/msg"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Members: 3, F: 8, Commands: []uint64{1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Members: 1, F: 8, Commands: []uint64{1}},
		{Members: 3, F: 0, Commands: []uint64{1}},
		{Members: 3, F: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// stubSync is a pre-synchronized sync layer for unit tests.
type stubSync struct {
	leader bool
	value  uint64
}

func (s *stubSync) Step(local uint64) sim.Action {
	s.value++
	return sim.Action{Freq: 1}
}
func (s *stubSync) Deliver(msg.Message) {}
func (s *stubSync) Output() sim.Output  { return sim.Output{Value: s.value, Synced: true} }
func (s *stubSync) IsLeader() bool      { return s.leader }

var unitSeed uint64

func newUnitNode(t *testing.T, leader bool, cmds []uint64) *Node {
	t.Helper()
	unitSeed++ // distinct streams => distinct replication-layer uids
	n, err := New(Config{Members: 3, F: 4, Commands: cmds, Settle: 1},
		&stubSync{leader: leader}, rng.New(unitSeed))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFollowerAppendsInOrder(t *testing.T) {
	n := newUnitNode(t, false, []uint64{10, 20, 30})
	leader := newUnitNode(t, true, []uint64{10, 20, 30})
	// Materialize the leader's log.
	for i := uint64(1); i < 10; i++ {
		leader.Step(i)
	}

	// Out-of-order entry is dropped.
	n.Deliver(leader.entryMessage(2))
	if len(n.log) != 0 {
		t.Fatal("gap entry appended")
	}
	// In-order entries append.
	n.Deliver(leader.entryMessage(1))
	n.Deliver(leader.entryMessage(2))
	if len(n.log) != 2 || n.log[0] != 10 || n.log[1] != 20 {
		t.Fatalf("log = %v", n.log)
	}
	// Duplicate is ignored.
	n.Deliver(leader.entryMessage(1))
	if len(n.log) != 2 {
		t.Fatal("duplicate appended")
	}
}

func TestCommitRidesOnEntries(t *testing.T) {
	leader := newUnitNode(t, true, []uint64{10, 20})
	for i := uint64(1); i < 10; i++ {
		leader.Step(i)
	}
	n := newUnitNode(t, false, []uint64{10, 20})
	n.Deliver(leader.entryMessage(1))
	n.Deliver(leader.entryMessage(2))
	if n.CommitIndex() != 0 {
		t.Fatal("committed without leader commit")
	}
	leader.commitIndex = 2
	n.Deliver(leader.entryMessage(1))
	if n.CommitIndex() != 2 {
		t.Fatalf("commitIndex = %d, want 2", n.CommitIndex())
	}
	// Commit index never exceeds the local log.
	short := newUnitNode(t, false, []uint64{10, 20})
	short.Deliver(leader.entryMessage(1)) // log length 1, commit tag 2
	if short.CommitIndex() != 1 {
		t.Fatalf("commitIndex = %d, want clamp to log length 1", short.CommitIndex())
	}
}

func TestLeaderCommitsOnQuorum(t *testing.T) {
	leader := newUnitNode(t, true, []uint64{10, 20})
	for i := uint64(1); i < 10; i++ {
		leader.Step(i)
	}
	f1 := newUnitNode(t, false, []uint64{10, 20})
	f2 := newUnitNode(t, false, []uint64{10, 20})
	f1.log = []uint64{10, 20}
	f2.log = []uint64{10}

	leader.Deliver(f1.ackMessage())
	if leader.CommitIndex() != 0 {
		t.Fatal("committed with one of two acks")
	}
	leader.Deliver(f2.ackMessage())
	if leader.CommitIndex() != 1 {
		t.Fatalf("commitIndex = %d, want 1 (both acked index 1)", leader.CommitIndex())
	}
	f2.log = []uint64{10, 20}
	leader.Deliver(f2.ackMessage())
	if leader.CommitIndex() != 2 {
		t.Fatalf("commitIndex = %d, want 2", leader.CommitIndex())
	}
}

func TestMalformedPayloadsIgnored(t *testing.T) {
	n := newUnitNode(t, false, []uint64{1})
	n.Deliver(msg.Message{Kind: msg.KindData})
	n.Deliver(msg.Message{Kind: msg.KindData, Payload: []byte{tagEntry, 1}})
	n.Deliver(msg.Message{Kind: msg.KindData, Payload: []byte{'Z', 0, 0}})
	if len(n.log) != 0 || n.CommitIndex() != 0 {
		t.Fatal("malformed payload mutated state")
	}
}

// TestReplicationEndToEnd runs the full stack: Trapdoor synchronization
// under jamming, then replication of a command sequence, asserting the
// safety invariant (identical committed prefixes) every round and eventual
// full commitment.
func TestReplicationEndToEnd(t *testing.T) {
	const members, f, tJam = 4, 8, 2
	commands := []uint64{100, 200, 300, 400, 500}
	p := trapdoor.Params{N: 16, F: f, T: tJam}

	for seed := uint64(0); seed < 3; seed++ {
		nodes := make([]*Node, members)
		check := props.NewChecker(members)
		safety := funcObserver{fn: func(rec *sim.RoundRecord) {
			// Safety: all committed prefixes agree, all commit indexes
			// monotone (checked implicitly by prefix equality each round).
			for i := 0; i < members; i++ {
				for j := i + 1; j < members; j++ {
					a, b := nodes[i], nodes[j]
					if a == nil || b == nil {
						continue
					}
					m := a.CommitIndex()
					if b.CommitIndex() < m {
						m = b.CommitIndex()
					}
					for k := 0; k < m; k++ {
						if a.log[k] != b.log[k] {
							t.Fatalf("round %d: committed prefix mismatch at %d: %d vs %d",
								rec.Round, k, a.log[k], b.log[k])
						}
					}
				}
			}
		}}
		cfg := &sim.Config{
			F:    f,
			T:    tJam,
			Seed: seed,
			NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
				n, err := New(Config{Members: members, F: f, Commands: commands, Settle: 200},
					trapdoor.MustNew(p, r), r)
				if err != nil {
					t.Fatal(err)
				}
				nodes[id] = n
				return n
			},
			Schedule:       sim.Simultaneous{Count: members},
			Adversary:      adversary.NewRandom(f, tJam, seed+31),
			MaxRounds:      60000,
			WireFidelity:   true, // replication payloads must fit a radio slot
			RunToMaxRounds: true, // the sync-completion stop rule would end the run before replication
			Observers:      []sim.Observer{check, safety},
			StopWhen: func(h *sim.History) bool {
				for _, n := range nodes {
					if n == nil || n.CommitIndex() < len(commands) {
						return false
					}
				}
				return true
			},
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !check.OK() {
			t.Fatalf("seed %d: sync violations: %v", seed, check.Violations())
		}
		for i, n := range nodes {
			if n.CommitIndex() != len(commands) {
				t.Fatalf("seed %d: node %d committed %d/%d (rounds=%d)",
					seed, i, n.CommitIndex(), len(commands), res.Stats.Rounds)
			}
			log := n.Log()
			for k, v := range log {
				if v != commands[k] {
					t.Fatalf("seed %d: node %d log[%d] = %d, want %d", seed, i, k, v, commands[k])
				}
			}
		}
	}
}

type funcObserver struct{ fn func(rec *sim.RoundRecord) }

func (f funcObserver) ObserveRound(rec *sim.RoundRecord) { f.fn(rec) }

// TestReplicationSurvivesLeaderCrash composes the Section 8 pieces: the
// fault-tolerant Trapdoor under a crashing leader, with replication riding
// on top. After the crash, a surviving node re-wins the election and
// finishes replicating the same command list; committed prefixes stay
// consistent throughout.
func TestReplicationSurvivesLeaderCrash(t *testing.T) {
	const members, f, tJam = 4, 8, 2
	commands := []uint64{11, 22, 33, 44, 55, 66}
	p := trapdoor.Params{
		N: 16, F: f, T: tJam,
		FaultTolerant: true,
		LeaderTimeout: 400,
	}
	crashAt := 3 * p.TotalRounds()

	nodes := make([]*Node, members)
	cfg := &sim.Config{
		F:    f,
		T:    tJam,
		Seed: 5,
		NewAgent: func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			// Majority quorum: commitment must survive a dead member.
			n, err := New(Config{Members: members, F: f, Commands: commands, Settle: 150, Quorum: 2},
				trapdoor.MustNew(p, r), r)
			if err != nil {
				t.Fatal(err)
			}
			nodes[id] = n
			if id == 0 {
				// Node 0 activates first, wins, replicates a while, dies.
				return &adversary.CrashAgent{Inner: n, CrashAt: crashAt}
			}
			return n
		},
		Schedule:       sim.Staggered{Count: members, Gap: 2},
		Adversary:      adversary.NewPrefix(f, tJam),
		MaxRounds:      crashAt + 200000,
		RunToMaxRounds: true,
		StopWhen: func(h *sim.History) bool {
			if h.Completed <= crashAt {
				return false
			}
			for id := 1; id < members; id++ {
				if nodes[id] == nil || nodes[id].CommitIndex() < len(commands) {
					return false
				}
			}
			return true
		},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitMaxRounds {
		t.Fatalf("survivors never finished replication after the crash (rounds=%d)", res.Stats.Rounds)
	}
	// A survivor must have taken over leadership.
	newLeader := false
	for id := 1; id < members; id++ {
		if nodes[id].IsLeader() {
			newLeader = true
		}
		if got := nodes[id].Log(); len(got) != len(commands) {
			t.Fatalf("node %d committed %d/%d", id, len(got), len(commands))
		}
		for k, v := range nodes[id].Log() {
			if v != commands[k] {
				t.Fatalf("node %d log[%d] = %d, want %d", id, k, v, commands[k])
			}
		}
	}
	if !newLeader {
		t.Fatal("no surviving node took over leadership")
	}
}
