package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsync/internal/obs"
	"wsync/internal/shard"
	"wsync/internal/svc"
)

type servedSize struct {
	req      svc.SubmitRequest // every job's tier, trials, and selection; the seed varies
	poll     time.Duration     // the worker's PollInterval
	minUnits int
	maxUnits int
}

// jobTimeout bounds one job, so a wedged service fails the run instead
// of hanging it.
const jobTimeout = 60 * time.Second

// warmSeedOffset moves the warm-up job's seed away from every measured
// job's, so the warm-up never fills the cache for a measured job.
const warmSeedOffset = 1 << 40

// servedStack is an in-process wsyncd: a svc.Server behind an httptest
// loopback listener and one svc.RunWorker, driven by one closed-loop
// client that behaves like wexp -submit. Unit u submits the job with
// seed+u, follows it to completion, fetches the report, resubmits the
// same job (a cache hit), and probes healthz.
type servedStack struct {
	o      *options
	tr     *tracer
	srv    *svc.Server
	ts     *httptest.Server
	http   *http.Client
	client *svc.Client
	probe  *svcProbe
	wreg   *obs.Registry
	cancel context.CancelFunc
	done   chan error
}

func setupServed(o *options, tr *tracer) (stack, error) {
	s := &servedStack{o: o, tr: tr, srv: svc.NewServer(svc.Options{}), wreg: obs.NewRegistry(), done: make(chan error, 1)}
	h := s.srv.Handler()
	if tr != nil {
		s.probe = &svcProbe{tr: tr}
		h = s.probe.wrap(h)
	}
	s.ts = httptest.NewServer(h)
	s.http = &http.Client{Transport: &http.Transport{}}
	s.client = &svc.Client{Base: s.ts.URL, HTTP: s.http}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		s.done <- svc.RunWorker(ctx, svc.WorkerOptions{
			Server:       s.ts.URL,
			Name:         "bench-worker",
			PollInterval: o.sz.served.poll,
			Parallelism:  poolWorkers,
			Metrics:      s.wreg,
		})
	}()
	// The stack is up once the server has seen the worker's first poll.
	beats := s.srv.Metrics().Counter("wsync_heartbeats_total", "")
	for deadline := time.Now().Add(jobTimeout); beats.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("the worker never polled")
		}
	}
	warm := o.sz.served.req
	warm.Seed = o.seed + warmSeedOffset
	if _, _, err := s.job(warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	s.probe.start()
	return s, nil
}

func (s *servedStack) bounds() (int, int) {
	return s.o.sz.served.minUnits, s.o.sz.served.maxUnits
}

func (s *servedStack) close() {
	s.cancel()
	if err := <-s.done; err != nil {
		s.o.logf("served-quick: worker: %v", err)
	}
	s.ts.Close()
	s.srv.Close()
	s.http.CloseIdleConnections()
}

// job submits req and follows it as wexp -submit does: watch the event
// stream to a terminal state, then fetch the merged report with Status.
func (s *servedStack) job(req svc.SubmitRequest) (*shard.Report, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	start := time.Now()
	sub, err := s.client.Submit(req)
	if err != nil {
		return nil, 0, err
	}
	if err := s.client.Watch(ctx, sub.JobID, func(svc.JobEvent) {}); err != nil {
		return nil, 0, fmt.Errorf("watching job %s: %w", sub.JobID, err)
	}
	st, err := s.client.Status(sub.JobID)
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	if st.State != svc.StateDone {
		return nil, elapsed, fmt.Errorf("job %s ended %s: %s", st.JobID, st.State, st.Error)
	}
	return st.Report, elapsed, nil
}

func (s *servedStack) unit(u int, parent int64) (unitOut, error) {
	req := s.o.sz.served.req
	req.Seed = s.o.seed + uint64(u)
	out := unitOut{key: fmt.Sprintf("job_seed=%d", req.Seed), ops: 2}
	hits, misses := s.cacheCounts()
	compute := s.computeSeconds()

	sp := s.tr.open("svc.job", parent)
	s.probe.setJob(sp.id())
	rep, elapsed, err := s.job(req)
	s.probe.setJob(0)
	sp.close()
	if err != nil {
		out.failed = 2
		s.o.logf("served-quick: job seed %d: %v", req.Seed, err)
		return out, nil
	}
	var computed bytes.Buffer
	if err := rep.Encode(&computed); err != nil {
		return out, err
	}

	sp = s.tr.open("svc.cached_job", parent)
	s.probe.setJob(sp.id())
	before := nodeRounds()
	crep, cachedElapsed, err := s.job(req)
	s.probe.setJob(0)
	sp.close()
	var cached bytes.Buffer
	switch {
	case err != nil:
		out.failed++
		s.o.logf("served-quick: cached job seed %d: %v", req.Seed, err)
	case crep.Encode(&cached) != nil || !bytes.Equal(cached.Bytes(), computed.Bytes()):
		out.failed++
		s.o.logf("served-quick: job seed %d: the cached report differs from the computed one", req.Seed)
	case nodeRounds() != before:
		out.failed++
		s.o.logf("served-quick: job seed %d: the cache hit ran the engines", req.Seed)
	}

	// The do-nothing row: one request through the same stack that does
	// no work.
	sp = s.tr.open("svc.healthz", parent)
	s.probe.setJob(sp.id())
	if resp, err := s.http.Get(s.ts.URL + "/v1/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s.probe.setJob(0)
	sp.close()

	out.latency = elapsed.Seconds()
	out.samples = map[string]float64{"job_s": elapsed.Seconds(), "cached_job_s": cachedElapsed.Seconds()}
	s.tr.sample("svc.cached_job_s", cachedElapsed.Seconds())
	if s.tr != nil {
		h, m := s.cacheCounts()
		s.tr.add("svc.jobs", 1)
		s.tr.add("svc.job_s", elapsed.Seconds())
		s.tr.add("svc.cache_hits", float64(h-hits))
		s.tr.add("svc.cache_misses", float64(m-misses))
		s.tr.add("worker.compute_s", s.computeSeconds()-compute)
	}
	out.digest, err = reportDigest(rep)
	return out, err
}

func (s *servedStack) computeSeconds() float64 {
	return s.wreg.Histogram("wsync_worker_experiment_seconds", "", obs.DefTimeBuckets).Sum()
}

func (s *servedStack) cacheCounts() (hits, misses uint64) {
	reg := s.srv.Metrics()
	return reg.Counter("wsync_cache_hits_total", "").Value(), reg.Counter("wsync_cache_misses_total", "").Value()
}

// svcProbe wraps the handler Server.Handler returns. It times each
// request by endpoint, parents its span on the job the client is waiting
// for (one closed-loop client, so there is at most one), and reads the
// small JSON answers to tell leases from empty polls, a job's final push
// from the others, and when a submitted job got its first lease.
type svcProbe struct {
	tr  *tracer
	on  atomic.Bool // off during set-up, so the warm-up job is not sampled
	job atomic.Int64

	mu       sync.Mutex
	submitAt time.Time
	awaiting bool // a submitted job has not been leased yet
}

func (p *svcProbe) start() {
	if p != nil {
		p.on.Store(true)
	}
}

// setJob names the span the next requests belong to; 0 makes them roots,
// such as the worker's idle polls between jobs.
func (p *svcProbe) setJob(id int64) {
	if p != nil {
		p.job.Store(id)
	}
}

func (p *svcProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		class := requestClass(r)
		rec := &recorder{ResponseWriter: w, keep: class == "submit" || class == "poll" || class == "push"}
		sp := p.tr.open("svc.http."+class, p.job.Load())
		start := time.Now()
		h.ServeHTTP(rec, r)
		elapsed := time.Since(start).Seconds()
		sp.close()
		p.observe(class, elapsed, rec)
	})
}

func (p *svcProbe) observe(class string, elapsed float64, rec *recorder) {
	switch class {
	case "submit":
		var resp svc.SubmitResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) == nil && resp.Cached < resp.Total {
			p.mu.Lock()
			p.submitAt, p.awaiting = time.Now(), true
			p.mu.Unlock()
		}
		p.tr.sample("svc.submit_s", elapsed)
	case "poll":
		p.tr.sample("svc.poll_s", elapsed)
		p.tr.add("svc.polls", 1)
		var resp svc.PollResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) != nil || resp.Assignment == nil {
			p.tr.add("svc.polls_empty", 1)
			return
		}
		p.tr.add("svc.leases", 1)
		p.mu.Lock()
		if p.awaiting {
			p.tr.sample("svc.queue_wait_s", time.Since(p.submitAt).Seconds())
			p.awaiting = false
		}
		p.mu.Unlock()
	case "push":
		var resp svc.PushResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) == nil && resp.State != svc.StateRunning {
			p.tr.sample("svc.push_final_s", elapsed)
		} else {
			p.tr.sample("svc.push_s", elapsed)
		}
	case "status":
		p.tr.sample("svc.status_s", elapsed)
		p.tr.sample("svc.report_bytes", float64(rec.n))
	case "healthz":
		p.tr.sample("svc.healthz_s", elapsed)
	}
}

// requestClass names the wsyncd endpoint a request is for.
func requestClass(r *http.Request) string {
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodPost && path == "/v1/poll":
		return "poll"
	case r.Method == http.MethodPost && path == "/v1/push":
		return "push"
	case r.Method == http.MethodGet && path == "/v1/healthz":
		return "healthz"
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/events"):
		return "events"
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		return "status"
	}
	return "other"
}

// recorder counts a response's bytes and, when keep is set, keeps them.
// It passes Flush through, which the event stream needs.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
	n    int
}

func (r *recorder) Write(b []byte) (int, error) {
	r.n += len(b)
	if r.keep {
		r.body.Write(b)
	}
	return r.ResponseWriter.Write(b)
}

func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
