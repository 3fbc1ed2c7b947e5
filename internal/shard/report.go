package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"wsync/internal/harness"
)

// Schema is the report version every emitter stamps and this package
// decodes and merges; CI's docs job checks docs/BENCH_FORMAT.md against it.
const Schema = "wsync-bench/v1"

// Report is the wsync-bench/v1 envelope (docs/BENCH_FORMAT.md is the
// spec). Field order mirrors the emitted key order: wexp -json and
// Encode must produce byte-identical documents for equal content, which
// is what makes the sharded-vs-unsharded byte comparison meaningful.
type Report struct {
	Schema               string `json:"schema"`
	Trials               int    `json:"trials"`
	EffectiveTrials      int    `json:"effective_trials"`
	Seed                 uint64 `json:"seed"`
	Quick                bool   `json:"quick"`
	Full                 bool   `json:"full"`
	Parallelism          int    `json:"parallelism"`
	EffectiveParallelism int    `json:"effective_parallelism"`
	// Shard is present only on artifacts produced by a sharded worker
	// run; merged and unsharded reports omit it.
	Shard       *Meta   `json:"shard,omitempty"`
	Experiments []Entry `json:"experiments"`
}

// Entry pairs one experiment's table with its wall time and throughput.
// node_rounds is the number of active node-rounds the experiment's
// simulations executed — a deterministic function of the sweep identity,
// inside the determinism contract. node_rounds_per_s derives from the wall
// time and is volatile, like elapsed_ms.
type Entry struct {
	Table            *harness.Table `json:"table"`
	ElapsedMS        int64          `json:"elapsed_ms"`
	NodeRounds       uint64         `json:"node_rounds"`
	NodeRoundsPerSec float64        `json:"node_rounds_per_s"`
}

// RunEntry runs one experiment and fills its report entry; it also
// returns the unrounded wall time for the caller's metrics. node_rounds
// comes from the run's own meter (harness.Experiment.RunMetered), so it is
// exact while other experiments run in the same process.
func RunEntry(e harness.Experiment, opt harness.Options) (Entry, time.Duration, error) {
	start := time.Now()
	tbl, nodeRounds, err := e.RunMetered(opt)
	if err != nil {
		return Entry{}, 0, err
	}
	elapsed := time.Since(start)
	ent := Entry{
		Table:      tbl,
		ElapsedMS:  elapsed.Round(time.Millisecond).Milliseconds(),
		NodeRounds: nodeRounds,
	}
	if s := elapsed.Seconds(); s > 0 {
		ent.NodeRoundsPerSec = float64(ent.NodeRounds) / s
	}
	return ent, elapsed, nil
}

// Meta stamps a shard artifact with its place in the partition: which
// 1-of-Count slice this worker ran, exactly which experiment ids the
// planner assigned it (empty when Count exceeds the selection size),
// and the full selection the plan partitioned. Selection lets the merge
// engine reject artifacts whose workers were invoked over different
// -run lists — the envelope alone cannot see that mismatch.
type Meta struct {
	Count     int      `json:"count"`
	Index     int      `json:"index"`
	IDs       []string `json:"ids"`
	Selection []string `json:"selection"`
}

// Decode parses a wsync-bench/v1 document, rejecting other schema
// versions.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("shard: decoding report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("shard: unsupported schema %q (want %q)", r.Schema, Schema)
	}
	return &r, nil
}

// ReadFile reads and decodes one report artifact.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Encode writes the report exactly as wexp -json does — two-space indent
// and a trailing newline — so artifacts from either path byte-compare.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ZeroVolatile zeroes the fields docs/BENCH_FORMAT.md documents as
// outside the determinism contract — elapsed_ms, node_rounds_per_s,
// parallelism, and effective_parallelism — leaving a pure function of
// (schema, seed, trials, tier, experiment set) suitable for byte
// comparison. node_rounds is deterministic and survives.
func (r *Report) ZeroVolatile() {
	r.Parallelism = 0
	r.EffectiveParallelism = 0
	for i := range r.Experiments {
		r.Experiments[i].ElapsedMS = 0
		r.Experiments[i].NodeRoundsPerSec = 0
	}
}

// CostsFromReport extracts per-experiment cost estimates for Plan from a
// prior run's wall times: id → elapsed_ms, clamped to at least 1 so a
// sub-millisecond experiment still counts as work. Duplicate ids keep
// the larger estimate.
func CostsFromReport(r *Report) map[string]int64 {
	costs := make(map[string]int64, len(r.Experiments))
	for _, e := range r.Experiments {
		if e.Table == nil {
			continue
		}
		c := e.ElapsedMS
		if c < 1 {
			c = 1
		}
		if c > costs[e.Table.ID] {
			costs[e.Table.ID] = c
		}
	}
	return costs
}
