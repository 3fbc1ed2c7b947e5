// Package adversary implements interference adversaries for the disrupted
// radio network model.
//
// The model grants the adversary up to t disrupted frequencies per round,
// chosen with knowledge of the protocol and of the execution through the
// previous round (Section 2). This package provides the adversaries used by
// the paper's arguments and by the experiments:
//
//   - None: no disruption (a baseline sanity adversary).
//   - Fixed: a static set. NewPrefix(f, t') jams frequencies 1..t': with
//     t' = t it is the "weak adversary" of the Theorem 1 lower bound, and
//     with t' < t the Good Samaritan "good execution" jammer, the natural
//     worst case for that protocol's low-frequency optimism.
//   - Random: a fresh uniform t-subset each round; oblivious, as required
//     by the Good Samaritan analysis.
//   - Sweep: a sliding window of t consecutive frequencies, a classic
//     scanning jammer.
//   - Bursty: alternates jamming and silence, modeling intermittent
//     interference (microwave ovens, co-located protocols).
//   - Reactive: adaptively jams the t frequencies that carried the most
//     transmissions in the previous round — legal in the model because it
//     only uses completed history.
//   - Stalker: the same strategy counting listeners instead of
//     transmitters, so it starves receivers.
//
// Reactive and Stalker are one type that differs only in which actions it
// counts. Each round it counts the previous round's actions per frequency
// and picks the t largest counts with freqset.TopT, ties going to the
// lower frequency, in one pass over the band.
//
// Every other adversary here ignores the execution and declares so by
// implementing sim.HistoryBlind. The round core then skips building
// round records when no observer is attached either. Reactive and Stalker
// do not declare it, so they read History.Last on graphs (multihop runs)
// as well as single-hop. The marker is opt-out on purpose: a wrapper
// around a blind adversary (a timing shim, say) hides the marker and
// only costs the record building, never a different result.
//
// All adversaries are deterministic given their construction parameters
// (Random and Bursty take explicit seeds), keeping simulations reproducible.
package adversary
