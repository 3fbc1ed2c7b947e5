// Package rendezvous hosts whitespace-style rendezvous games on the sim
// round core (internal/sim).
//
// The setting is the one of "Optimal whitespace synchronization strategies"
// (Azar et al.) and the energy-constrained regime of "Near-Optimal Radio
// Use For Wireless Network Synchronization" (Bradonjić–Kohler–Ostrovsky):
// k parties must meet on a common channel of a band [1..F] on which an
// adversary blocks channels, statically (a whitespace availability map) or
// per round (a churning jammer). A meeting is a clean radio event — one
// party transmits, another listens, same channel, no interference — so the
// game runs in the same slotted round as the synchronization engines
// rather than in a private loop.
//
// The pieces:
//
//   - Strategy decides one party's (channel, transmit?) choice per local
//     round. The gallery covers uniform spreading at a chosen width
//     (Uniform, with the Azar-optimal width min(F, 2t) via OptimalWidth),
//     stay/ramble block strategies (StayRamble), deterministic hop
//     sequences (Oblivious), and per-party channel-availability relabeling
//     (Restricted). Strategies that can report their per-round marginal
//     distribution implement Profiled; product-form jammers need it.
//     lowerbound.StrategyFromRegular adapts any lowerbound.Regular
//     schedule, so the paper's protocols play unchanged.
//
//   - Jammer picks the blocked channels each round: Static sets, the
//     Theorem 4 greedy product jammer (Greedy), and Churn, which reuses
//     the whole internal/adversary gallery by replaying the previous
//     round's party actions to the adversary as history.
//
// Run is a driver over sim.RunGraph, as multihop is: the k parties are
// the only nodes, on the complete graph over them, and a meeting is a
// delivery. Blocking goes through the core's adversary slot. Each round,
// before the parties step, the game applies the mask deltas and asks the
// jammer for its blocked set. The core then drops a clean reception
// when sim.ListenerDisrupter reports its channel blocked globally or
// masked for the listening party.
//
// lowerbound.TwoNodeGame is this driver with two parties and the greedy
// jammer; the pre-engine loop survives in lowerbound's tests as the
// differential oracle (its TestRendezvousMatchesTwoNodeGame and
// TestTwoNodeGameMatchesScan pin bit-for-bit equality of meeting rounds).
package rendezvous
