// Package stats provides the summary statistics and curve-fitting helpers
// the experiment harness uses to compare measured synchronization times
// against the paper's asymptotic bounds (Theorems 1, 4, 10, and 18).
//
// Summarize condenses a sample into the quantiles the experiment tables
// report; FitRatio and RelSpread quantify how closely a measured curve
// tracks a theory curve's shape. Accumulator is the streaming counterpart
// of Summarize used by the parallel runner: its summary's floating-point
// reductions run over a value histogram in ascending order, independent
// of the order samples arrive in, anchoring the runner's
// bit-identical-at-any-parallelism guarantee.
package stats
