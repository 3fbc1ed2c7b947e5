// Command wexp regenerates the paper's experiment tables (every figure and
// theorem; see DESIGN.md §4 for the index).
//
// Usage:
//
//	wexp                         # run all experiments, text tables to stdout
//	wexp -run T10a,T10b          # run selected experiments
//	wexp -run R1,R2,R3           # the rendezvous workload family
//	wexp -quick                  # smallest grids (seconds, for smoke tests)
//	wexp -full                   # large grids: N to 16384, F to 128, multihop RGGs to 4096, rendezvous to F=128
//	wexp -trials 50 -seed 7      # more repetitions / different seeds
//	wexp -parallel 4             # trial-runner worker count (0 = one per CPU)
//	wexp -run X10a -nobatch      # per-node dispatch (benchdiff baseline for the batch-stepping speedup)
//	wexp -format markdown        # markdown tables (EXPERIMENTS.md bodies)
//	wexp -format csv -out dir/   # one CSV file per experiment
//	wexp -json                   # one machine-readable report on stdout
//	wexp -list                   # list experiment ids and exit
//	wexp -cpuprofile cpu.pprof -memprofile mem.pprof -full
//	                             # profile the run (go tool pprof reads the outputs)
//
// Artifact comparison (docs/BENCH_FORMAT.md, "Comparing artifacts:
// benchdiff") diffs two -json reports experiment by experiment on wall
// time and node-rounds/s, exiting non-zero on regressions past the
// threshold — the CI bench-regression gate:
//
//	wexp benchdiff -threshold 30 -min-ms 100 old.json new.json
//
// Sharded sweeps (docs/BENCH_FORMAT.md, "Sharding") split the selection
// across workers at experiment granularity and merge the artifacts back
// into the report an unsharded run would have produced:
//
//	wexp -shards 3 -shard-index 1 -json     # run the second of three partitions
//	wexp -shards 3 -shard-index 1 -plan-costs prior.json
//	                                        # balance the partition by a prior run's wall times
//	wexp merge -out all.json s0.json s1.json s2.json
//	                                        # union shard artifacts (envelopes must agree)
//	wexp merge -zero-volatile a.json        # normalize for byte comparison
//
// Served sweeps (docs/BENCH_FORMAT.md, "The wsyncd job service") hand
// the selection to a wsyncd server, which shards it across registered
// workers, retries work lost to dead workers, serves repeats from its
// content-addressed cache, and returns the same merged report. wsyncd is
// the one dynamic dispatcher; on a single machine it takes three
// commands:
//
//	wsyncd -listen 127.0.0.1:8080 &
//	wsyncd -worker http://127.0.0.1:8080 -name w1 -parallel 1 &   # ×K, distinct names
//	wexp -submit http://127.0.0.1:8080 -json
//
// The -json report is the benchmark artifact CI uploads on every build:
// it bundles the rendered tables with the options and per-experiment wall
// times and node-rounds throughput, so the performance trajectory of the
// runner is diffable across commits. Results are bit-identical for a
// given (seed, trials, quick) regardless of -parallel, and — after
// zeroing the volatile wall-time, throughput, and parallelism fields —
// regardless of how the run was sharded or served.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wsync/internal/harness"
	"wsync/internal/obs"
	"wsync/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "benchdiff" {
		return runBenchdiff(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("wexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs    = fs.String("run", "", "comma-separated experiment ids (default: all)")
		trials    = fs.Int("trials", 0, "trials per sweep point (0 = default)")
		seed      = fs.Uint64("seed", 0, "seed offset for all experiments")
		quick     = fs.Bool("quick", false, "smallest grids (smoke test)")
		full      = fs.Bool("full", false, "large grids: N up to 16384, F up to 128, multihop RGGs up to 4096, rendezvous up to F=128")
		parallel  = fs.Int("parallel", 0, "trial-runner worker goroutines (0 = one per CPU)")
		noBatch   = fs.Bool("nobatch", false, "disable devirtualized batch stepping in the X10 dispatch experiments, the only ones that read it (per-node dispatch; results are bit-identical, only wall time moves)")
		format    = fs.String("format", "text", "output format: text, markdown, csv, json")
		jsonOut   = fs.Bool("json", false, "shorthand for -format json")
		outDir    = fs.String("out", "", "write per-experiment files to this directory instead of stdout")
		listAll   = fs.Bool("list", false, "list experiment ids and exit")
		shards    = fs.Int("shards", 0, "split the selection into this many shards and run one of them (requires -shard-index)")
		shardIdx  = fs.Int("shard-index", -1, "which shard of -shards to run, in [0, shards)")
		submit    = fs.String("submit", "", "submit the sweep to this wsyncd base URL and write its merged report")
		planCosts = fs.String("plan-costs", "", "prior wsync-bench/v1 report whose elapsed_ms values balance the shard partition")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write an end-of-run allocation profile to this file")
		metricsRt = fs.String("metrics-out", "", "write a Prometheus text snapshot of the run's metrics to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	formatSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "format" {
			formatSet = true
		}
	})
	if *jsonOut {
		*format = "json"
	}
	if *quick && *full {
		fmt.Fprintln(stderr, "wexp: -quick and -full are mutually exclusive")
		return 2
	}
	switch *format {
	case "text", "markdown", "csv", "json":
	default:
		fmt.Fprintf(stderr, "wexp: unknown format %q (text, markdown, csv, json)\n", *format)
		return 2
	}
	switch {
	case *shards < 0:
		fmt.Fprintln(stderr, "wexp: -shards must be positive")
		return 2
	case *submit != "" && *shards > 0:
		fmt.Fprintln(stderr, "wexp: -submit and -shards are mutually exclusive")
		return 2
	case *submit != "" && *noBatch:
		// The served sweep runs on the workers, and an assignment carries
		// only the sweep identity: -nobatch cannot reach them.
		fmt.Fprintln(stderr, "wexp: -nobatch does not apply to -submit (workers always batch-step)")
		return 2
	case *shards > 0 && (*shardIdx < 0 || *shardIdx >= *shards):
		fmt.Fprintf(stderr, "wexp: -shard-index must be in [0, %d)\n", *shards)
		return 2
	case *shards == 0 && *shardIdx >= 0:
		fmt.Fprintln(stderr, "wexp: -shard-index requires -shards")
		return 2
	case *planCosts != "" && *shards == 0:
		fmt.Fprintln(stderr, "wexp: -plan-costs requires -shards (wsyncd keeps its own cost table)")
		return 2
	}

	if *listAll {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-5s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// The run's own metric registry — the offline counterpart of wsyncd's
	// /metrics endpoint, snapshotted to a file on every exit path so even
	// a failed run leaves its partial counts behind.
	reg := obs.NewRegistry()
	if *metricsRt != "" {
		defer func() {
			f, err := os.Create(*metricsRt)
			if err != nil {
				fmt.Fprintf(stderr, "wexp: -metrics-out: %v\n", err)
				return
			}
			werr := reg.WritePrometheus(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "wexp: -metrics-out: %v\n", werr)
			}
		}()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "wexp: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "wexp: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "wexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocation stats before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "wexp: -memprofile: %v\n", err)
			}
		}()
	}

	if *submit != "" {
		// The merged JSON report goes to stdout: an explicitly requested
		// non-JSON format or -out is an error, the defaulted text upgrades.
		if (formatSet && *format != "json") || *outDir != "" {
			fmt.Fprintln(stderr, "wexp: -submit emits the merged JSON report to stdout (only -format json, no -out)")
			return 2
		}
		return runSubmit(*submit, svcSubmitRequest(*seed, *trials, *quick, *full, *runIDs), stdout, stderr)
	}

	opt := harness.Options{Trials: *trials, Seed: *seed, Quick: *quick, Full: *full, Parallelism: *parallel, NoBatch: *noBatch}

	var selected []harness.Experiment
	if *runIDs == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "wexp: unknown experiment %q (valid: %s)\n", id, strings.Join(harness.IDs(), ", "))
				return 2
			}
			selected = append(selected, e)
		}
	}

	var shardMeta *shard.Meta
	if *shards > 0 {
		ids := make([]string, len(selected))
		for i, e := range selected {
			ids[i] = e.ID
		}
		var costs map[string]int64
		if *planCosts != "" {
			prior, err := shard.ReadFile(*planCosts)
			if err != nil {
				fmt.Fprintf(stderr, "wexp: -plan-costs: %v\n", err)
				return 1
			}
			costs = shard.CostsFromReport(prior)
		}
		plan, err := shard.Plan(ids, *shards, costs)
		if err != nil {
			fmt.Fprintf(stderr, "wexp: %v\n", err)
			return 1
		}
		mine := plan[*shardIdx]
		keep := make(map[string]bool, len(mine))
		for _, id := range mine {
			keep[id] = true
		}
		kept := selected[:0:0]
		for _, e := range selected {
			if keep[e.ID] {
				kept = append(kept, e)
			}
		}
		selected = kept
		shardMeta = &shard.Meta{Count: *shards, Index: *shardIdx, IDs: mine, Selection: ids}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "wexp: %v\n", err)
			return 1
		}
	}

	rep := shard.Report{
		Schema:               shard.Schema,
		Trials:               *trials,
		EffectiveTrials:      opt.EffectiveTrials(),
		Seed:                 *seed,
		Quick:                *quick,
		Full:                 *full,
		Parallelism:          *parallel,
		EffectiveParallelism: opt.EffectiveParallelism(),
		Shard:                shardMeta,
		Experiments:          []shard.Entry{},
	}

	// Serial-run counters, mirrors of the wsync_worker_* set: node-rounds
	// are sampled as deltas of the engines' process-global atomics, never
	// instrumenting the round loops themselves (see internal/obs doc).
	metExperiments := reg.Counter("wsync_run_experiments_total", "Experiments run to completion by this invocation.")
	metNodeRounds := reg.Counter("wsync_run_node_rounds_total", "Engine node-rounds executed (delta-sampled; docs/BENCH_FORMAT.md).")
	metExpSeconds := reg.Histogram("wsync_run_experiment_seconds", "Wall time per experiment.", obs.DefTimeBuckets)

	for _, e := range selected {
		// Experiments run serially, so RunEntry's counter delta is exactly
		// this experiment's work even though trials within it run in parallel.
		ent, elapsed, err := shard.RunEntry(e, opt)
		if err != nil {
			fmt.Fprintf(stderr, "wexp: %s: %v\n", e.ID, err)
			return 1
		}
		metExperiments.Inc()
		metNodeRounds.Add(ent.NodeRounds)
		metExpSeconds.Observe(elapsed.Seconds())
		tbl := ent.Table

		if *format == "json" && *outDir == "" {
			// Stdout JSON is one report for all experiments, emitted after
			// the loop so the document stays a single valid value.
			rep.Experiments = append(rep.Experiments, ent)
			continue
		}

		var out io.Writer = stdout
		var file *os.File
		if *outDir != "" {
			ext := map[string]string{"text": "txt", "markdown": "md", "csv": "csv", "json": "json"}[*format]
			file, err = os.Create(filepath.Join(*outDir, e.ID+"."+ext))
			if err != nil {
				fmt.Fprintf(stderr, "wexp: %v\n", err)
				return 1
			}
			out = file
		}

		switch *format {
		case "markdown":
			err = tbl.Markdown(out)
		case "csv":
			err = tbl.CSV(out)
		case "json":
			err = tbl.JSON(out)
		default:
			err = tbl.Render(out)
			if err == nil {
				_, err = fmt.Fprintf(out, "(%s)\n\n", elapsed.Round(time.Millisecond))
			}
		}
		if file != nil {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "wexp: %s: %v\n", e.ID, err)
			return 1
		}
	}

	if *format == "json" && *outDir == "" {
		if err := rep.Encode(stdout); err != nil {
			fmt.Fprintf(stderr, "wexp: %v\n", err)
			return 1
		}
	}
	return 0
}
