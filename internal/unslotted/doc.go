// Package unslotted implements the slotted→unslotted transformation
// sketched in Section 8 of the paper ("Unsynchronized rounds").
//
// The paper's model assumes all nodes agree on round boundaries. In
// reality, devices' clocks are phase-shifted. The classical fix (going
// back to the ALOHA slotting argument, [1] in the paper) costs a constant
// factor: subdivide time into half-slots, let every protocol round occupy
// two consecutive half-slots of the node's local clock, and transmit each
// message in both half-slots. Any receiver's round then fully contains at
// least one half-slot of any concurrent transmission, so a message that
// would have been received in the slotted model is received here too —
// at twice the slot cost.
//
// This package is a driver over the sim round core with exactly those
// semantics: nodes have arbitrary phase parities, the adversary jams up
// to t frequencies per half-slot, and unmodified sim.Agent protocols run
// on top. Run makes one sim.RunGraph call on the complete graph
// (sim.Clique), one core round per half-slot; a wrapper agent steps the
// slotted agent on odd local half-slots, repeats its action on even
// ones, and hands it the round's first reception when the next round
// starts. A test verifies that with all phases equal the driver
// reproduces the slotted semantics, and the integration tests show the
// Trapdoor Protocol synchronizing across phase-shifted nodes unchanged.
//
// The adversary sees the core's History in half-slots: Completed and
// Activated count half-slots, and an adversary that is not
// sim.HistoryBlind gets the previous half-slot's record as History.Last.
// A node choosing a frequency outside [1..F], or an adversary exceeding
// its budget, panics with the core's "sim:" message, and the core
// validates F and T. Unslotted runs add to no node-round counter.
package unslotted
