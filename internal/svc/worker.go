package svc

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"wsync/internal/harness"
	"wsync/internal/obs"
	"wsync/internal/pool"
	"wsync/internal/shard"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Server is the wsyncd base URL.
	Server string
	// Name identifies this worker to the server; it must be unique among
	// concurrently polling workers (the failure detector is per name).
	Name string
	// PollInterval seeds the idle backoff: the first empty poll sleeps
	// about this long and consecutive empty polls double it (with
	// jitter) up to a fixed cap of 16×PollInterval. Default 500ms.
	PollInterval time.Duration
	// Parallelism is the number of lanes an assignment's experiments run
	// on side by side, and the trial-runner worker count passed to the
	// harness (0 = one per CPU for both). Results are bit-identical at
	// any setting.
	Parallelism int
	// Log receives one record per assignment, push, and error, each
	// carrying worker/job attributes. Nil discards them.
	Log *slog.Logger
	// Metrics is the registry for the wsync_worker_* metrics; nil means
	// a private registry (counted but unexposed).
	Metrics *obs.Registry
}

// workerMetrics is the wsync_worker_* metric set; docs/OBSERVABILITY.md
// is the catalogue.
type workerMetrics struct {
	polls       *obs.Counter
	pollErrors  *obs.Counter
	assignments *obs.Counter
	experiments *obs.Counter
	expFailures *obs.Counter
	pushErrors  *obs.Counter
	nodeRounds  *obs.Counter
	expSeconds  *obs.Histogram
	busy        *obs.Gauge
}

func newWorkerMetrics(reg *obs.Registry) workerMetrics {
	return workerMetrics{
		polls:       reg.Counter("wsync_worker_polls_total", "Poll requests sent to the server."),
		pollErrors:  reg.Counter("wsync_worker_poll_errors_total", "Poll requests that failed in transport."),
		assignments: reg.Counter("wsync_worker_assignments_total", "Assignments received."),
		experiments: reg.Counter("wsync_worker_experiments_total", "Experiments run to completion."),
		expFailures: reg.Counter("wsync_worker_experiment_failures_total", "Experiments whose Run returned an error."),
		pushErrors:  reg.Counter("wsync_worker_push_errors_total", "Entry pushes that failed in transport."),
		nodeRounds:  reg.Counter("wsync_worker_node_rounds_total", "Engine node-rounds executed, metered per experiment (docs/BENCH_FORMAT.md)."),
		expSeconds:  reg.Histogram("wsync_worker_experiment_seconds", "Wall time per experiment; lanes overlap.", obs.DefTimeBuckets),
		busy:        reg.Gauge("wsync_worker_busy", "1 while running an assignment, 0 while idle."),
	}
}

// RunWorker polls the server for assignments, runs each assignment's
// experiments through the harness on Parallelism lanes, and pushes the
// entries back as they complete, until ctx is cancelled (which
// returns nil) or an assignment names an experiment this binary does
// not know (a version skew error worth dying loudly for). Transport
// errors are logged and retried — a worker outlives server restarts.
// Idle and error sleeps use jittered exponential backoff, reset the
// moment an assignment arrives, so an idle fleet spreads its polls
// instead of thundering in lockstep.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Name == "" {
		return fmt.Errorf("svc: worker name required")
	}
	interval := opts.PollInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	log := opts.Log
	if log == nil {
		log = discardLogger()
	}
	log = log.With("worker", opts.Name)
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newWorkerMetrics(reg)
	client := &Client{Base: opts.Server}
	backoff := Backoff{Base: interval, Max: 16 * interval}

	sleep := func() bool {
		t := time.NewTimer(backoff.Next())
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}

	for {
		if ctx.Err() != nil {
			return nil
		}
		met.polls.Inc()
		a, err := client.Poll(opts.Name)
		if err != nil {
			met.pollErrors.Inc()
			log.Warn("poll failed", "error", err)
			if !sleep() {
				return nil
			}
			continue
		}
		if a == nil {
			if !sleep() {
				return nil
			}
			continue
		}
		backoff.Reset()
		met.assignments.Inc()
		met.busy.Set(1)
		log.Info("assignment received", "job", a.JobID, "ids", a.IDs)
		// Check every id before running any: a version skew fails the
		// worker with nothing of the assignment run.
		exps := make([]harness.Experiment, len(a.IDs))
		for i, id := range a.IDs {
			e, ok := harness.ByID(id)
			if !ok {
				met.busy.Set(0)
				return fmt.Errorf("svc: worker %s assigned unknown experiment %q (server/worker version skew?)", opts.Name, id)
			}
			exps[i] = e
		}
		opt := harness.Options{
			Trials:      a.Trials,
			Seed:        a.Seed,
			Quick:       a.Quick,
			Full:        a.Full,
			Parallelism: opts.Parallelism,
		}
		// The assignment's experiments run on Parallelism lanes, in lease
		// order; at Parallelism 1 that is one serial loop. Each run meters
		// its own node-rounds, so lanes do not read each other's work.
		pool.Run(opts.Parallelism, len(exps), func(_, i int) {
			if ctx.Err() != nil {
				return
			}
			e := exps[i]
			ent, elapsed, err := shard.RunEntry(e, opt)
			if err != nil {
				// Skip the push: this worker's next poll hands the id back
				// to the server, whose attempt bound turns a persistent
				// failure into a failed job with a diagnostic.
				met.expFailures.Inc()
				log.Error("experiment failed", "job", a.JobID, "experiment", e.ID, "error", err)
				return
			}
			met.experiments.Inc()
			met.nodeRounds.Add(ent.NodeRounds)
			met.expSeconds.Observe(elapsed.Seconds())
			// Push each entry as it completes: the push doubles as a
			// heartbeat (the server extends this worker's lease deadlines),
			// so a long assignment only needs every single experiment — not
			// the whole chunk — to finish within the heartbeat window. It
			// also narrows the re-plan after a crash to the truly lost work.
			state, err := client.Push(opts.Name, a.JobID, []shard.Entry{ent})
			if err != nil {
				met.pushErrors.Inc()
				log.Warn("push failed", "job", a.JobID, "experiment", e.ID, "error", err)
				return
			}
			log.Info("entry pushed", "job", a.JobID, "experiment", e.ID, "job_state", state)
		})
		// Every lane has drained: the next poll reports this assignment
		// finished (the svc.go contract).
		met.busy.Set(0)
	}
}
