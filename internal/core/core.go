package core

import (
	"fmt"

	"wsync/internal/rng"
)

// Role is a node's state within a synchronization protocol.
type Role uint8

// Roles. Contender, Leader and KnockedOut appear in the Trapdoor Protocol;
// Samaritan, Passive and Fallback appear in the Good Samaritan Protocol;
// Synced is terminal in both.
const (
	RoleContender Role = iota + 1
	RoleKnockedOut
	RoleLeader
	RoleSamaritan
	RolePassive
	RoleFallback
	RoleSynced
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleContender:
		return "contender"
	case RoleKnockedOut:
		return "knocked-out"
	case RoleLeader:
		return "leader"
	case RoleSamaritan:
		return "samaritan"
	case RolePassive:
		return "passive"
	case RoleFallback:
		return "fallback"
	case RoleSynced:
		return "synced"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// UIDSpread is the c in the paper's footnote 4: identifiers are drawn
// uniformly from [1 .. UIDSpread·N²], making collisions polynomially
// unlikely.
const UIDSpread = 16

// NewUID draws a fresh unique identifier for a node in a system with at
// most n participants (footnote 4 of the paper).
func NewUID(r *rng.Rand, n int) uint64 {
	if n < 1 {
		n = 1
	}
	limit := uint64(UIDSpread) * uint64(n) * uint64(n)
	return 1 + r.Uint64()%limit
}

// OutputState implements a node's per-round output in N⊥ with the
// commit-then-increment discipline the problem demands: ⊥ until Adopt,
// then the adopted value, incrementing by exactly one per round.
//
// Protocol usage: call Tick at the top of every Step; call Adopt when a
// numbering is learned (value is the number for the current round); read
// Synced and Value to report the round's output. The engine reads a
// node's output right after Step and again after Deliver when the node
// received, so reporting must only read this state.
type OutputState struct {
	synced bool
	value  uint64
}

// Tick advances the output by one round. Call it exactly once at the top
// of every Step; an Adopt later in the same round overwrites the value.
func (o *OutputState) Tick() {
	if o.synced {
		o.value++
	}
}

// Adopt commits the numbering: v is the round number for the current
// round. Later Adopts simply re-align the value (used by leader heartbeats
// in the fault-tolerant extension, where the leader's scheme is already
// ours); they never revert to ⊥.
func (o *OutputState) Adopt(v uint64) {
	o.synced = true
	o.value = v
}

// Synced reports whether the node has committed (non-⊥ output).
func (o *OutputState) Synced() bool { return o.synced }

// Value returns the current round number; meaningful only when Synced.
func (o *OutputState) Value() uint64 { return o.value }
