// Package shard plans, stamps, and merges distributed sweep runs: the
// machinery behind `wexp -shards K -shard-index i` and `wexp merge`, and
// under the wsyncd job service in internal/svc (see docs/BENCH_FORMAT.md,
// "Sharding"). RunEntry is the one experiment→entry runner that wexp's
// serial loop and the wsyncd worker's lanes share; each call meters its
// own node-rounds, so calls may run side by side.
//
// The unit of sharding is the experiment: the wsync-bench/v1 report is
// merge-friendly exactly at experiment-id granularity (tables are keyed
// by id; duplicate ids with differing tables are an envelope mismatch),
// and per-trial seeds depend only on (seed, sweep-point key, trial), so
// an experiment produces the same table no matter which machine runs it.
//
// Plan partitions a selection of experiment ids into K shards with a
// deterministic longest-processing-time greedy: points are weighted by
// cost estimates (typically prior elapsed_ms via CostsFromReport, with a
// uniform fallback when no estimate exists) and assigned heaviest-first
// to the least-loaded shard. The partition is a pure function of
// (selection, K, costs) — every worker computes the full plan and takes
// its slice, so no coordination is needed beyond sharing the flags.
//
// Merge is the inverse: it unions shard artifacts back into the report an
// unsharded run would have produced — envelopes must agree on schema,
// seed, trials, and tier; duplicate ids collapse only when their tables
// are identical; per-shard elapsed_ms values are preserved, never summed;
// and experiments come out in catalogue order (wexp -list). Merging the
// K shard artifacts of a run is byte-identical to the unsharded report
// for any K once the volatile fields are zeroed (ZeroVolatile), which
// TestShardMergeIdentity in cmd/wexp and CI's shard-smoke job enforce.
package shard
