package replog

import (
	"encoding/binary"
	"fmt"

	"wsync/internal/core"
	"wsync/internal/freqdist"
	"wsync/internal/msg"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Config describes one replicated-log node.
type Config struct {
	// Members is the group size n; the leader commits an entry once the
	// other Members−1 nodes acknowledged it.
	Members int
	// F is the number of frequencies.
	F int
	// Commands is the command sequence to replicate; every node carries
	// it, and whichever node wins the election replicates it. (Values are
	// opaque to the protocol.)
	Commands []uint64
	// Settle is the number of local rounds a node stays quiet after its
	// own synchronization before joining replication; it gives the rest
	// of the group time to synchronize. Zero means DefaultSettle.
	Settle uint64
	// Quorum is the number of distinct follower acknowledgements required
	// to commit an entry; zero means Members−1 (full replication). Crash-
	// tolerant deployments choose a majority instead, trading durability
	// on the slowest members for progress despite their failure. Because
	// every member carries the same command sequence, committed prefixes
	// remain consistent under any quorum.
	Quorum int
}

// DefaultSettle is the post-synchronization quiet period.
const DefaultSettle = 400

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Settle == 0 {
		c.Settle = DefaultSettle
	}
	if c.Quorum == 0 {
		c.Quorum = c.Members - 1
	}
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Members < 2 {
		return fmt.Errorf("replog: Members = %d, need >= 2", c.Members)
	}
	if c.F < 1 {
		return fmt.Errorf("replog: F = %d", c.F)
	}
	if len(c.Commands) == 0 {
		return fmt.Errorf("replog: no commands to replicate")
	}
	if c.Quorum < 0 || c.Quorum > c.Members-1 {
		return fmt.Errorf("replog: Quorum = %d out of [0, Members-1]", c.Quorum)
	}
	return nil
}

// Node is one group member. It implements sim.Agent.
type Node struct {
	cfg  Config
	sync sim.Agent
	r    *rng.Rand
	uid  uint64
	dist freqdist.Uniform
	// ackProb is a follower's per-round acknowledgement probability,
	// min(1/2, 2/Members).
	ackProb float64

	syncedAt uint64 // local round of own synchronization (0 = not yet)

	// log state (all nodes)
	log         []uint64
	commitIndex int

	// leader state
	acks map[int]map[uint64]bool // index -> follower uids that acked
}

var _ sim.Agent = (*Node)(nil)

// New builds a node around the given synchronization agent.
func New(cfg Config, syncAgent sim.Agent, r *rng.Rand) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Node{
		cfg:     cfg,
		sync:    syncAgent,
		r:       r,
		uid:     core.NewUID(r, cfg.Members*16),
		dist:    freqdist.NewUniform(1, cfg.F),
		ackProb: min(0.5, 2/float64(cfg.Members)),
		acks:    make(map[int]map[uint64]bool),
	}, nil
}

// Log returns a copy of the committed prefix.
func (n *Node) Log() []uint64 {
	out := make([]uint64, n.commitIndex)
	copy(out, n.log[:n.commitIndex])
	return out
}

// CommitIndex returns the highest committed index (0 = none).
func (n *Node) CommitIndex() int { return n.commitIndex }

// isLeader reports whether the embedded synchronization agent won.
func (n *Node) isLeader() bool {
	lr, ok := n.sync.(sim.LeaderReporter)
	return ok && lr.IsLeader()
}

// IsLeader re-exports leadership for experiment accounting.
func (n *Node) IsLeader() bool { return n.isLeader() }

// Step implements sim.Agent.
func (n *Node) Step(local uint64) sim.Action {
	act := n.sync.Step(local)
	out := n.sync.Output()
	if !out.Synced {
		return act
	}
	if n.syncedAt == 0 {
		n.syncedAt = local
	}
	if local-n.syncedAt < n.cfg.Settle {
		return act // let the group finish synchronizing
	}
	if act.Transmit {
		// The synchronization layer needs the air: leader announcements,
		// or — in the fault-tolerant variant — a re-election after a
		// leader crash. Replication always yields to it.
		return act
	}

	f := n.dist.Sample(n.r)
	if n.isLeader() {
		// Leader: everything proposed, nothing left? Keep broadcasting
		// entries so late followers catch up (the commit tag rides along).
		if n.r.Bool() {
			idx := n.pickIndex(out.Value)
			return sim.Action{Freq: f, Transmit: true, Msg: n.entryMessage(idx)}
		}
		return sim.Action{Freq: f}
	}
	// Follower: mostly listen, occasionally acknowledge.
	if len(n.log) > 0 && n.r.Bernoulli(n.ackProb) {
		return sim.Action{Freq: f, Transmit: true, Msg: n.ackMessage()}
	}
	return sim.Action{Freq: f}
}

// pickIndex chooses which entry to broadcast: cycle over indexes not yet
// acknowledged by all followers, falling back to cycling the whole log.
func (n *Node) pickIndex(round uint64) int {
	// The leader's log is the full command list.
	if len(n.log) != len(n.cfg.Commands) {
		n.log = append([]uint64(nil), n.cfg.Commands...)
	}
	var pending []int
	for i := 1; i <= len(n.log); i++ {
		if len(n.acks[i]) < n.cfg.Quorum {
			pending = append(pending, i)
		}
	}
	if len(pending) > 0 {
		return pending[int(round)%len(pending)]
	}
	return 1 + int(round)%len(n.log)
}

// wire format tags
const (
	tagEntry = 'E'
	tagAck   = 'A'
)

// entryMessage encodes entry idx with the current commit index.
func (n *Node) entryMessage(idx int) msg.Message {
	payload := make([]byte, 1+4+8+4)
	payload[0] = tagEntry
	binary.BigEndian.PutUint32(payload[1:], uint32(idx))
	binary.BigEndian.PutUint64(payload[5:], n.log[idx-1])
	binary.BigEndian.PutUint32(payload[13:], uint32(n.commitIndex))
	return msg.Message{Kind: msg.KindData, Payload: payload}
}

// ackMessage encodes the follower's contiguous log length.
func (n *Node) ackMessage() msg.Message {
	payload := make([]byte, 1+8+4)
	payload[0] = tagAck
	binary.BigEndian.PutUint64(payload[1:], n.uid)
	binary.BigEndian.PutUint32(payload[9:], uint32(len(n.log)))
	return msg.Message{Kind: msg.KindData, Payload: payload}
}

// Deliver implements sim.Agent.
func (n *Node) Deliver(m msg.Message) {
	if m.Kind != msg.KindData {
		n.sync.Deliver(m)
		return
	}
	if len(m.Payload) == 0 {
		return
	}
	switch m.Payload[0] {
	case tagEntry:
		if n.isLeader() || len(m.Payload) != 17 {
			return
		}
		idx := int(binary.BigEndian.Uint32(m.Payload[1:]))
		value := binary.BigEndian.Uint64(m.Payload[5:])
		commit := int(binary.BigEndian.Uint32(m.Payload[13:]))
		// In-order append; duplicates and gaps are ignored (the leader
		// retransmits until everything is acknowledged).
		if idx == len(n.log)+1 {
			n.log = append(n.log, value)
		}
		// Commit index advances monotonically, clamped to our log: if the
		// leader committed past what we hold, everything we hold is
		// committed.
		if commit > len(n.log) {
			commit = len(n.log)
		}
		if commit > n.commitIndex {
			n.commitIndex = commit
		}
	case tagAck:
		if !n.isLeader() || len(m.Payload) != 13 {
			return
		}
		uid := binary.BigEndian.Uint64(m.Payload[1:])
		upTo := int(binary.BigEndian.Uint32(m.Payload[9:]))
		if upTo > len(n.log) {
			upTo = len(n.log)
		}
		for i := 1; i <= upTo; i++ {
			set := n.acks[i]
			if set == nil {
				set = make(map[uint64]bool)
				n.acks[i] = set
			}
			set[uid] = true
		}
		// Advance the commit index over quorum-acknowledged prefixes.
		for n.commitIndex < len(n.log) && len(n.acks[n.commitIndex+1]) >= n.cfg.Quorum {
			n.commitIndex++
		}
	}
}

// Output forwards the synchronization layer's round numbering.
func (n *Node) Output() sim.Output { return n.sync.Output() }
