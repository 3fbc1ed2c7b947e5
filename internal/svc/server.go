package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsync/internal/harness"
	"wsync/internal/obs"
	"wsync/internal/shard"
)

// Options tunes the server's failure detector and retry policy. The
// zero value means the defaults noted on each field.
type Options struct {
	// HeartbeatTimeout is how long a worker may hold an assignment
	// without pushing before the server presumes it dead and re-plans
	// its unfinished experiments (a poll hands them back at once).
	// Default 15s.
	HeartbeatTimeout time.Duration
	// RetryBase is the backoff unit for re-planned experiments: after
	// attempt k fails, the experiment is not reassigned for
	// RetryBase << (k-1). Default 1s.
	RetryBase time.Duration
	// MaxAttempts bounds assignments per experiment; exceeding it fails
	// the whole job with a diagnostic naming the experiment. Default 3.
	MaxAttempts int
	// Log receives one structured record per state transition
	// (assignment, push, expiry, completion), each carrying job- and
	// worker-scoped attributes. Nil discards them.
	Log *slog.Logger
	// Metrics is the registry the server registers its wsync_* metrics
	// in (docs/OBSERVABILITY.md catalogues them); nil means a private
	// registry, reachable through Server.Metrics.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 15 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Log == nil {
		o.Log = discardLogger()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// discardLogger builds a logger that drops everything (slog has no
// ready-made discard handler at this module's Go floor).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// serverMetrics is the wsync_* metric set; docs/OBSERVABILITY.md is the
// catalogue.
type serverMetrics struct {
	jobsSubmitted  *obs.Counter
	jobsCompleted  *obs.Counter
	jobsFailed     *obs.Counter
	jobsRunning    *obs.Gauge
	leasesGranted  *obs.Counter
	heartbeats     *obs.Counter
	replans        *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheConflicts *obs.Counter
	entriesPushed  *obs.Counter
	nodeRounds     *obs.Counter
	pushLatency    *obs.Histogram
	inflight       *obs.GaugeVec
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		jobsSubmitted:  reg.Counter("wsync_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		jobsCompleted:  reg.Counter("wsync_jobs_completed_total", "Jobs that reached state done."),
		jobsFailed:     reg.Counter("wsync_jobs_failed_total", "Jobs that reached state failed."),
		jobsRunning:    reg.Gauge("wsync_jobs_running", "Jobs currently in state running."),
		leasesGranted:  reg.Counter("wsync_leases_granted_total", "Assignments handed to polling workers."),
		heartbeats:     reg.Counter("wsync_heartbeats_total", "Worker signs of life (every poll and push)."),
		replans:        reg.Counter("wsync_replans_total", "Experiments re-planned after a worker missed its heartbeat deadline or polled again without pushing them."),
		cacheHits:      reg.Counter("wsync_cache_hits_total", "Experiments served from the content-addressed result cache at submit."),
		cacheMisses:    reg.Counter("wsync_cache_misses_total", "Experiments that missed the cache at submit and entered the pending pool."),
		cacheConflicts: reg.Counter("wsync_cache_conflicts_total", "Pushed entries conflicting with an already-recorded result (determinism violations)."),
		entriesPushed:  reg.Counter("wsync_entries_pushed_total", "Completed experiment entries accepted from workers."),
		nodeRounds:     reg.Counter("wsync_node_rounds_total", "Engine node-rounds reported by accepted entries (the deterministic work measure of docs/BENCH_FORMAT.md)."),
		pushLatency:    reg.Histogram("wsync_push_latency_seconds", "POST /v1/push handling latency.", obs.DefTimeBuckets),
		inflight:       reg.GaugeVec("wsync_worker_inflight", "Experiments currently leased, per worker.", "worker"),
	}
}

// pendingPoint is one experiment awaiting assignment. notBefore
// implements retry backoff: the point is invisible to polls until then.
type pendingPoint struct {
	id        string
	notBefore time.Time
}

// lease is one outstanding assignment. ids shrinks as the worker pushes
// entries back; an expired lease returns whatever remains to pending.
type lease struct {
	worker   string
	jobID    string
	ids      []string
	deadline time.Time
}

// job is the server-side state of one submitted sweep.
type job struct {
	id        string
	spec      SubmitRequest
	selection []string
	effTrials int

	pending  []pendingPoint
	attempts map[string]int // id -> times assigned
	entries  map[string]shard.Entry
	cached   int
	retries  int

	state  string
	errMsg string
	report *shard.Report

	// events is the append-only transition log served by
	// GET /v1/jobs/{id}/events; notify is closed and replaced on every
	// append, waking blocked long-poll rounds.
	events []JobEvent
	notify chan struct{}
}

// Server is the wsyncd control plane. All state lives in memory behind
// one mutex — the workload is a handful of workers polling at human
// timescales, not a hot path.
type Server struct {
	opts Options
	log  *slog.Logger
	met  serverMetrics

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job ids in submit order: polls drain the oldest runnable job first
	nextJob int
	cache   map[string]shard.Entry // shard.CacheKey -> completed entry
	costs   map[string]int64       // experiment id -> last observed elapsed_ms (plan feedback)
	workers map[string]time.Time   // worker name -> last heartbeat
	leases  []*lease

	draining atomic.Bool
	drainCh  chan struct{}
	done     chan struct{}
	sweeper  sync.WaitGroup
}

// NewServer builds a server and starts its expiry sweeper. Call Close
// to stop it.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		log:     opts.Log,
		met:     newServerMetrics(opts.Metrics),
		jobs:    make(map[string]*job),
		cache:   make(map[string]shard.Entry),
		costs:   make(map[string]int64),
		workers: make(map[string]time.Time),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	tick := s.opts.HeartbeatTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	s.sweeper.Add(1)
	go func() {
		defer s.sweeper.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case now := <-t.C:
				s.expire(now)
			}
		}
	}()
	return s
}

// Close stops the expiry sweeper and ends blocked long-poll rounds.
// In-memory state stays readable.
func (s *Server) Close() {
	close(s.done)
	s.sweeper.Wait()
}

// Metrics returns the registry holding the server's wsync_* metrics,
// for mounting on additional endpoints (the -debug-addr mux).
func (s *Server) Metrics() *obs.Registry { return s.opts.Metrics }

// BeginDrain marks the server as draining: GET /v1/healthz starts
// answering 503 so load balancers and smoke scripts can tell "finishing"
// from "down", and blocked long-poll rounds answer at once so an
// http.Server.Shutdown can complete. Job state is untouched — workers
// may keep pushing until the listener closes.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
		s.log.Info("draining: healthz now 503, long-poll rounds ending")
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/poll", s.handlePoll)
	mux.HandleFunc("POST /v1/push", s.handlePush)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.opts.Metrics.Handler())
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: HealthDraining})
		return
	}
	writeJSON(w, http.StatusOK, Health{Status: HealthOK})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxRequestBody caps every request body the server decodes. The largest
// legitimate body is a push of one assignment's entries, and a whole
// full-tier report encodes to under 64 KiB, so 8 MiB leaves two orders of
// magnitude of headroom while bounding what one request can make the
// server buffer.
const maxRequestBody = 8 << 20

var (
	// ErrBodyTooLarge rejects a request body over maxRequestBody bytes
	// (HTTP 413).
	ErrBodyTooLarge = fmt.Errorf("svc: request body exceeds %d bytes", maxRequestBody)
	// ErrTrailingData rejects a request body with anything but whitespace
	// after its JSON value (HTTP 400).
	ErrTrailingData = errors.New("svc: data after the JSON request body")
)

// decodeBody decodes exactly one JSON value from the request body into v,
// rejecting oversized bodies, unknown fields, and trailing data.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := false
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return nil
		}
		trailing = true
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return ErrBodyTooLarge
	case trailing:
		return ErrTrailingData
	}
	return err
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeBody(w, r, v)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrBodyTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
	}
	return false
}

// emit appends one event to the job's transition log and wakes every
// blocked long-poll round. Callers hold s.mu.
func (s *Server) emit(j *job, kind string) {
	j.events = append(j.events, JobEvent{
		Seq:     len(j.events) + 1,
		Kind:    kind,
		JobID:   j.id,
		State:   j.state,
		Done:    len(j.entries),
		Total:   len(j.selection),
		Cached:  j.cached,
		Retries: j.retries,
		Error:   j.errMsg,
	})
	close(j.notify)
	j.notify = make(chan struct{})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Quick && req.Full {
		http.Error(w, "quick and full are mutually exclusive", http.StatusBadRequest)
		return
	}
	selection := req.Run
	if len(selection) == 0 {
		selection = harness.IDs()
	}
	seen := make(map[string]bool, len(selection))
	for _, id := range selection {
		if _, ok := harness.ByID(id); !ok {
			http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusBadRequest)
			return
		}
		if seen[id] {
			http.Error(w, fmt.Sprintf("duplicate experiment %q", id), http.StatusBadRequest)
			return
		}
		seen[id] = true
	}
	opt := harness.Options{Trials: req.Trials, Seed: req.Seed, Quick: req.Quick, Full: req.Full}
	effTrials := opt.EffectiveTrials()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextJob++
	j := &job{
		id:        fmt.Sprintf("j%d", s.nextJob),
		spec:      req,
		selection: selection,
		effTrials: effTrials,
		attempts:  make(map[string]int, len(selection)),
		entries:   make(map[string]shard.Entry, len(selection)),
		state:     StateRunning,
		notify:    make(chan struct{}),
	}
	// Seed from the content-addressed cache before anything reaches a
	// worker: a hit is a finished experiment, whatever job computed it.
	now := time.Now()
	for _, id := range selection {
		key := shard.CacheKey(shard.Schema, req.Seed, effTrials, req.Quick, req.Full, id)
		if e, ok := s.cache[key]; ok {
			j.entries[id] = e
			j.cached++
			continue
		}
		j.pending = append(j.pending, pendingPoint{id: id, notBefore: now})
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.met.jobsSubmitted.Inc()
	s.met.jobsRunning.Inc()
	s.met.cacheHits.Add(uint64(j.cached))
	s.met.cacheMisses.Add(uint64(len(selection) - j.cached))
	s.emit(j, EventSubmitted)
	if len(j.entries) == len(j.selection) {
		s.finalize(j)
	}
	s.log.Info("job submitted", "job", j.id, "experiments", len(selection), "cached", j.cached)
	writeJSON(w, http.StatusOK, SubmitResponse{JobID: j.id, Total: len(selection), Cached: j.cached})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	st := JobStatus{
		JobID:   j.id,
		State:   j.state,
		Total:   len(j.selection),
		Done:    len(j.entries),
		Cached:  j.cached,
		Retries: j.retries,
		Error:   j.errMsg,
	}
	if j.state == StateDone {
		st.Report = j.report
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "worker name required", http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.heartbeat(req.Worker, now)
	// A worker polls only once it has pushed or skipped everything it was
	// assigned, so whatever it still holds was skipped: its run failed or
	// its push was lost. Re-plan it now; extending the lease would hang
	// the job, since the live worker's polls keep it from ever expiring.
	s.revoke(now, "worker skipped a push; experiment re-planned", "polled again without pushing it",
		func(l *lease) bool { return l.worker == req.Worker })

	for _, jobID := range s.order {
		j := s.jobs[jobID]
		if j.state != StateRunning {
			continue
		}
		ready := make([]string, 0, len(j.pending))
		for _, p := range j.pending {
			if !p.notBefore.After(now) {
				ready = append(ready, p.id)
			}
		}
		if len(ready) == 0 {
			continue
		}
		chunk, err := shard.Replan(ready, s.liveWorkers(now), s.costs)
		if err != nil {
			// Replan rejects only malformed pools; a job that produces one
			// is a server bug, surfaced as a failed job rather than a hang.
			s.fail(j, fmt.Sprintf("re-plan: %v", err))
			continue
		}
		take := make(map[string]bool, len(chunk))
		for _, id := range chunk {
			take[id] = true
			j.attempts[id]++
		}
		kept := j.pending[:0]
		for _, p := range j.pending {
			if !take[p.id] {
				kept = append(kept, p)
			}
		}
		j.pending = kept
		s.leases = append(s.leases, &lease{
			worker:   req.Worker,
			jobID:    j.id,
			ids:      chunk,
			deadline: now.Add(s.opts.HeartbeatTimeout),
		})
		s.met.leasesGranted.Inc()
		s.updateInflight(req.Worker)
		s.log.Info("lease granted", "job", j.id, "worker", req.Worker, "ids", chunk)
		writeJSON(w, http.StatusOK, PollResponse{Assignment: &Assignment{
			JobID:  j.id,
			IDs:    chunk,
			Seed:   j.spec.Seed,
			Trials: j.spec.Trials,
			Quick:  j.spec.Quick,
			Full:   j.spec.Full,
		}})
		return
	}
	writeJSON(w, http.StatusOK, PollResponse{})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.met.pushLatency.Observe(time.Since(start).Seconds())
	}()
	var req PushRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Worker != "" {
		s.heartbeat(req.Worker, now)
	}
	j, ok := s.jobs[req.JobID]
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	folded := 0
	for _, e := range req.Entries {
		if e.Table == nil {
			s.fail(j, fmt.Sprintf("worker %s pushed an entry without a table", req.Worker))
			break
		}
		id := e.Table.ID
		if prev, dup := j.entries[id]; dup {
			// A presumed-dead worker finishing late collides with the
			// re-planned copy; determinism says they must be identical.
			if same, err := entriesEqual(prev, e); err != nil {
				s.fail(j, fmt.Sprintf("experiment %s: %v", id, err))
				break
			} else if !same {
				s.met.cacheConflicts.Inc()
				s.fail(j, fmt.Sprintf("experiment %s: conflicting results from workers (determinism violation)", id))
				break
			}
			continue
		}
		j.entries[id] = e
		key := shard.CacheKey(shard.Schema, j.spec.Seed, j.effTrials, j.spec.Quick, j.spec.Full, id)
		s.cache[key] = e
		// Observed wall time feeds the next plan — the -plan-costs loop.
		cost := e.ElapsedMS
		if cost < 1 {
			cost = 1
		}
		s.costs[id] = cost
		s.met.entriesPushed.Inc()
		s.met.nodeRounds.Add(e.NodeRounds)
		folded++
		s.releaseLeased(req.Worker, j.id, id)
	}
	if req.Worker != "" {
		s.updateInflight(req.Worker)
	}
	if j.state == StateRunning && len(j.entries) == len(j.selection) {
		s.finalize(j)
	} else if folded > 0 && j.state == StateRunning {
		s.emit(j, EventProgress)
	}
	s.log.Info("entries pushed", "job", j.id, "worker", req.Worker,
		"entries", len(req.Entries), "done", len(j.entries), "total", len(j.selection), "state", j.state)
	writeJSON(w, http.StatusOK, PushResponse{State: j.state})
}

// longPollMaxWait caps the server-side block of a long-poll round.
const longPollMaxWait = time.Minute

var (
	errNoSuchJob     = errors.New("no such job")
	errCursorPastLog = errors.New("after is past the job's last event")
)

// handleEvents serves one long-poll round of the job's transition log:
// the events after the ?after=N cursor (last seen sequence number),
// held up to ?wait (default 25s, capped at longPollMaxWait) while none
// are pending. A drain or Close ends the wait early with an empty list;
// docs/OBSERVABILITY.md specifies the contract.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "after must be a non-negative integer", http.StatusBadRequest)
			return
		}
		after = n
	}
	wait := 25 * time.Second
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "wait must be a non-negative duration", http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > longPollMaxWait {
		wait = longPollMaxWait
	}
	evs, notify, terminal, err := s.jobEvents(id, after)
	if err == nil && len(evs) == 0 && !terminal && wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
		case <-s.done:
		case <-t.C:
		case <-notify:
		}
		evs, _, _, err = s.jobEvents(id, after)
	}
	switch {
	case errors.Is(err, errNoSuchJob):
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, http.StatusOK, EventsResponse{Events: evs})
	}
}

// jobEvents snapshots the events after the cursor (never nil, so an
// empty round encodes as []) plus the current notify channel and
// terminal flag. It rejects an unknown job and a cursor past the log.
func (s *Server) jobEvents(id string, after int) (evs []JobEvent, notify <-chan struct{}, terminal bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	switch {
	case !ok:
		return nil, nil, false, errNoSuchJob
	case after > len(j.events):
		return nil, nil, false, errCursorPastLog
	}
	return append([]JobEvent{}, j.events[after:]...), j.notify, j.state != StateRunning, nil
}

// heartbeat records a sign of life from the worker and extends its
// outstanding lease deadlines: any poll or push proves the worker is
// alive, so an in-flight assignment only needs each single experiment —
// pushed incrementally — to land within the heartbeat window.
func (s *Server) heartbeat(worker string, now time.Time) {
	s.met.heartbeats.Inc()
	s.workers[worker] = now
	for _, l := range s.leases {
		if l.worker == worker {
			l.deadline = now.Add(s.opts.HeartbeatTimeout)
		}
	}
}

// liveWorkers counts workers heard from within the heartbeat window
// (at least 1: the poller asking is alive by definition).
func (s *Server) liveWorkers(now time.Time) int {
	live := 0
	for _, seen := range s.workers {
		if now.Sub(seen) <= s.opts.HeartbeatTimeout {
			live++
		}
	}
	if live < 1 {
		live = 1
	}
	return live
}

// updateInflight recomputes the per-worker in-flight gauge from the
// lease table. Callers hold s.mu.
func (s *Server) updateInflight(worker string) {
	n := 0
	for _, l := range s.leases {
		if l.worker == worker {
			n += len(l.ids)
		}
	}
	s.met.inflight.With(worker).Set(int64(n))
}

// releaseLeased removes one completed id from the worker's lease on the
// job, dropping the lease when it empties.
func (s *Server) releaseLeased(worker, jobID, id string) {
	kept := s.leases[:0]
	for _, l := range s.leases {
		if l.worker == worker && l.jobID == jobID {
			ids := l.ids[:0]
			for _, lid := range l.ids {
				if lid != id {
					ids = append(ids, lid)
				}
			}
			l.ids = ids
			if len(l.ids) == 0 {
				continue
			}
		}
		kept = append(kept, l)
	}
	s.leases = kept
}

// expire is the failure detector: leases past their deadline return
// their unfinished experiments to the pending pool.
func (s *Server) expire(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revoke(now, "worker presumed dead; experiment re-planned", "missed its heartbeat deadline",
		func(l *lease) bool { return !l.deadline.After(now) })
}

// revoke drops the leases matching lapsed and returns their unfinished
// experiments to the pending pool with exponential backoff, or fails the
// job once an experiment exhausts its attempts; why completes the
// diagnostic "worker <name> ...". Callers hold s.mu.
func (s *Server) revoke(now time.Time, logMsg, why string, lapsed func(*lease) bool) {
	kept := s.leases[:0]
	for _, l := range s.leases {
		if !lapsed(l) {
			kept = append(kept, l)
			continue
		}
		s.met.inflight.With(l.worker).Set(0)
		j := s.jobs[l.jobID]
		if j == nil || j.state != StateRunning {
			continue
		}
		replanned := false
		for _, id := range l.ids {
			if _, done := j.entries[id]; done {
				continue
			}
			if j.attempts[id] >= s.opts.MaxAttempts {
				s.fail(j, fmt.Sprintf("experiment %s failed %d attempts; worker %s %s",
					id, j.attempts[id], l.worker, why))
				break
			}
			backoff := s.opts.RetryBase << (j.attempts[id] - 1)
			j.pending = append(j.pending, pendingPoint{id: id, notBefore: now.Add(backoff)})
			j.retries++
			replanned = true
			s.met.replans.Inc()
			s.log.Warn(logMsg, "job", j.id, "worker", l.worker, "experiment", id,
				"attempt", j.attempts[id], "backoff", backoff)
		}
		if replanned && j.state == StateRunning {
			s.emit(j, EventReplan)
		}
	}
	s.leases = kept
}

// finalize assembles the completed job's report: entries in selection
// order run through shard.Merge, which validates them and imposes the
// catalogue order an unsharded run would have produced.
func (s *Server) finalize(j *job) {
	rep := &shard.Report{
		Schema:          shard.Schema,
		Trials:          j.spec.Trials,
		EffectiveTrials: j.effTrials,
		Seed:            j.spec.Seed,
		Quick:           j.spec.Quick,
		Full:            j.spec.Full,
		Experiments:     make([]shard.Entry, 0, len(j.selection)),
	}
	for _, id := range j.selection {
		rep.Experiments = append(rep.Experiments, j.entries[id])
	}
	merged, err := shard.Merge([]*shard.Report{rep})
	if err != nil {
		s.fail(j, fmt.Sprintf("assembling report: %v", err))
		return
	}
	j.report = merged
	j.state = StateDone
	s.met.jobsCompleted.Inc()
	s.met.jobsRunning.Dec()
	s.emit(j, EventDone)
	s.log.Info("job done", "job", j.id,
		"experiments", len(j.selection), "cached", j.cached, "retries", j.retries)
}

func (s *Server) fail(j *job, msg string) {
	if j.state != StateRunning {
		return
	}
	j.state = StateFailed
	j.errMsg = msg
	s.met.jobsFailed.Inc()
	s.met.jobsRunning.Dec()
	s.emit(j, EventFailed)
	s.log.Error("job failed", "job", j.id, "error", msg)
}

// entriesEqual compares two entries on their deterministic fields —
// canonical table JSON and node_rounds — ignoring the volatile wall
// time and throughput.
func entriesEqual(a, b shard.Entry) (bool, error) {
	if a.NodeRounds != b.NodeRounds {
		return false, nil
	}
	aj, err := json.Marshal(a.Table)
	if err != nil {
		return false, err
	}
	bj, err := json.Marshal(b.Table)
	if err != nil {
		return false, err
	}
	return bytes.Equal(aj, bj), nil
}
