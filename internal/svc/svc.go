// Package svc implements the wsyncd job service: an HTTP/JSON control
// plane that serves benchmark sweeps over the sharding machinery in
// internal/shard.
//
// A client submits a sweep (seed, trials, tier, experiment selection)
// and gets a job id; workers register by polling, receive experiment
// assignments carved from the pending pool with shard.Replan, run them
// through internal/harness, and push back per-experiment entries. The
// server folds entries into the job and, when the selection is covered,
// assembles the final wsync-bench/v1 report through shard.Merge — so a
// served sweep is byte-identical (after ZeroVolatile) to the report an
// unsharded `wexp -json` run would emit.
//
// It is the one dynamic dispatcher for sweeps; static `wexp -shards`
// plus `wexp merge` is the only other way to distribute one. Three
// properties make it always-on rather than one-shot:
//
//   - Retry/re-plan: a worker that misses its heartbeat deadline, or
//     polls again without pushing everything it was assigned, has its
//     unfinished experiments returned to the pending pool with
//     exponential backoff and re-planned across the live workers;
//     a bounded number of attempts per experiment turns a persistent
//     failure into a failed job with a diagnostic instead of a hang.
//   - Content-addressed result cache: every completed entry is stored
//     under shard.CacheKey(schema, seed, point key, trials); a
//     resubmitted sweep is served from cache without touching a worker,
//     and overlapping sweeps share work at experiment granularity.
//   - Cost feedback: each entry's elapsed_ms updates the server's cost
//     table, so later plans balance partitions by observed wall time —
//     the `-plan-costs` loop, closed automatically.
//
// The wire protocol (all request and response bodies are JSON) is:
//
//	POST /v1/jobs                SubmitRequest  -> SubmitResponse
//	GET  /v1/jobs/{id}                          -> JobStatus
//	GET  /v1/jobs/{id}/events                   -> EventsResponse (long-poll)
//	POST /v1/poll                PollRequest    -> PollResponse
//	POST /v1/push                PushRequest    -> PushResponse
//	GET  /v1/healthz                            -> Health (503 while draining)
//	GET  /metrics                               -> Prometheus text exposition
//
// A poll is also a worker's report that its previous assignment is
// finished: a worker pushes each entry as it completes and polls only
// after the last one, so any id still leased to a polling worker was
// skipped (its run failed or its push was lost) and is re-planned like
// the work of a worker that missed its heartbeat. Hence each worker name
// must poll from one serial loop.
//
// The events endpoint serves job-state transitions as long-poll JSON
// rounds, resumable through the ?after=<seq> cursor; Client.Watch
// follows a job with it.
// docs/BENCH_FORMAT.md ("The wsyncd job service") is the job-protocol
// spec; docs/OBSERVABILITY.md covers metrics, logs, and the event wire
// format.
package svc

import "wsync/internal/shard"

// SubmitRequest describes one sweep: the identity tuple of the
// determinism contract. Run is the experiment selection in catalogue
// order terms (empty means the full catalogue); unknown ids are
// rejected at submit time.
type SubmitRequest struct {
	Seed   uint64   `json:"seed"`
	Trials int      `json:"trials"`
	Quick  bool     `json:"quick"`
	Full   bool     `json:"full"`
	Run    []string `json:"run,omitempty"`
}

// SubmitResponse acknowledges a job. Cached counts the experiments
// served immediately from the content-addressed cache; when Cached ==
// Total the job is already done and no worker will be involved.
type SubmitResponse struct {
	JobID  string `json:"job_id"`
	Total  int    `json:"total"`
	Cached int    `json:"cached"`
}

// Job states reported by JobStatus.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the polling view of a job. Report is present only in
// state "done"; Error only in state "failed". Retries counts experiment
// re-plans caused by workers missing their heartbeat deadline or
// polling again without pushing them.
type JobStatus struct {
	JobID   string        `json:"job_id"`
	State   string        `json:"state"`
	Total   int           `json:"total"`
	Done    int           `json:"done"`
	Cached  int           `json:"cached"`
	Retries int           `json:"retries"`
	Error   string        `json:"error,omitempty"`
	Report  *shard.Report `json:"report,omitempty"`
}

// PollRequest registers (or heartbeats) a worker and asks for work.
type PollRequest struct {
	Worker string `json:"worker"`
}

// Assignment is one unit of work: run IDs under the job's sweep options
// and push the entries back. The id list is a shard.Replan slice of the
// job's pending pool — roughly 1/live-workers of it by estimated cost.
type Assignment struct {
	JobID  string   `json:"job_id"`
	IDs    []string `json:"ids"`
	Seed   uint64   `json:"seed"`
	Trials int      `json:"trials"`
	Quick  bool     `json:"quick"`
	Full   bool     `json:"full"`
}

// PollResponse carries an assignment, or nothing when no work is ready
// (the worker sleeps one poll interval and asks again).
type PollResponse struct {
	Assignment *Assignment `json:"assignment,omitempty"`
}

// PushRequest returns completed entries for a job. Entries from a
// worker the server had presumed dead are accepted and collapse against
// the re-planned copies when identical — determinism makes duplicates
// harmless; a conflicting duplicate fails the job loudly instead.
type PushRequest struct {
	Worker  string        `json:"worker"`
	JobID   string        `json:"job_id"`
	Entries []shard.Entry `json:"entries"`
}

// PushResponse reports the job state after folding the pushed entries,
// so a worker learns immediately when its job finished or failed.
type PushResponse struct {
	State string `json:"state"`
}

// Event kinds carried by JobEvent.Kind, in the order a healthy job
// emits them: submitted, zero or more progress/replan, then exactly one
// of done or failed.
const (
	EventSubmitted = "submitted"
	EventProgress  = "progress"
	EventReplan    = "replan"
	EventDone      = "done"
	EventFailed    = "failed"
)

// JobEvent is one entry in a job's transition log, served by
// GET /v1/jobs/{id}/events. Seq is 1-based and strictly increasing per
// job; passing the last seen Seq as ?after resumes the log without
// duplicates. Events deliberately omit the report — at a terminal event
// the client fetches it once via GET /v1/jobs/{id}.
type JobEvent struct {
	Seq     int    `json:"seq"`
	Kind    string `json:"kind"`
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Cached  int    `json:"cached"`
	Retries int    `json:"retries"`
	Error   string `json:"error,omitempty"`
}

// EventsResponse is one long-poll round of the events endpoint: all
// events after the cursor, empty if the wait elapsed or the server
// began draining first.
type EventsResponse struct {
	Events []JobEvent `json:"events"`
}

// Health statuses reported by GET /v1/healthz.
const (
	HealthOK       = "ok"
	HealthDraining = "draining"
)

// Health is the healthz body. Status "draining" rides a 503 so plain
// HTTP health checks fail the instance while the body tells humans (and
// the daemon-smoke script) that it is finishing, not crashed.
type Health struct {
	Status string `json:"status"`
}
