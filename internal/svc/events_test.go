package svc_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsync/internal/svc"
)

// TestEventStreamEndToEnd is the Watch acceptance path: a watched job
// delivers every transition exactly once and in order — "submitted"
// first, a terminal "done" last, sequence numbers 1, 2, 3, … without a
// gap or repeat — and the terminal event agrees with what
// GET /v1/jobs/{id} reports.
func TestEventStreamEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	_, client := startServer(t, svc.Options{Log: testLogger(t)})
	startWorker(t, client, "w1", 1)

	sub, err := client.Submit(svc.SubmitRequest{Seed: 11, Trials: 1, Quick: true, Run: []string{"F1", "L2"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var events []svc.JobEvent
	if err := client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("watch returned without delivering any events")
	}
	if events[0].Kind != svc.EventSubmitted {
		t.Errorf("first event kind = %q, want %q", events[0].Kind, svc.EventSubmitted)
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d, want %d (each event exactly once, in order)", i, ev.Seq, i+1)
		}
	}
	last := events[len(events)-1]
	if last.Kind != svc.EventDone || last.State != svc.StateDone {
		t.Fatalf("terminal event = %+v, want kind done", last)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.State != svc.StateRunning {
			t.Fatalf("non-terminal event %+v carries terminal state", ev)
		}
	}
	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != last.State || st.Done != last.Done || st.Total != last.Total || st.Retries != last.Retries {
		t.Errorf("terminal event %+v disagrees with status %+v", last, st)
	}
}

// TestEventsLongPoll pins the events endpoint: the ?after cursor
// dedups, a satisfied cursor blocks until the wait elapses, a cursor
// past the log is rejected at once, and an unknown job is a 404.
func TestEventsLongPoll(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	sub, err := client.Submit(svc.SubmitRequest{Seed: 21, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	evs, err := client.EventsLongPoll(ctx, sub.JobID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != svc.EventSubmitted || evs[0].Seq != 1 {
		t.Fatalf("after=0 events = %+v, want one submitted event with seq 1", evs)
	}

	// Cursor at the tip: nothing arrives, the wait elapses, empty answer.
	start := time.Now()
	evs, err = client.EventsLongPoll(ctx, sub.JobID, 1, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("tip cursor returned events: %+v", evs)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("long poll returned before the wait elapsed")
	}

	// Cursor past the log: out-of-range input, a prompt 400 rather than
	// a full wait for events that can never arrive.
	start = time.Now()
	_, err = client.EventsLongPoll(ctx, sub.JobID, 2, 30*time.Second)
	var apiErr *svc.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("cursor past the log err = %v, want a 400", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cursor past the log blocked instead of failing fast")
	}

	if _, err := client.EventsLongPoll(ctx, "nope", 0, 0); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("unknown job err = %v", err)
	}
}

// TestEventsSingleWireForm pins that the events endpoint has one wire
// form: a request asking for text/event-stream still gets the JSON
// EventsResponse.
func TestEventsSingleWireForm(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	sub, err := client.Submit(svc.SubmitRequest{Seed: 22, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, client.Base+"/v1/jobs/"+sub.JobID+"/events?after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("answer = %d %q, want 200 application/json", resp.StatusCode, ct)
	}
	var out svc.EventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("body is not an EventsResponse: %v", err)
	}
	if len(out.Events) != 1 || out.Events[0].Kind != svc.EventSubmitted {
		t.Fatalf("events = %+v, want the one submitted event", out.Events)
	}
}

// TestWatchBacksOffWhileDraining pins that Watch sleeps its backoff
// after a round that delivers nothing new: a draining server answers
// every long-poll round at once, and a Watch that re-polled immediately
// would flood it with requests until the job ended.
func TestWatchBacksOffWhileDraining(t *testing.T) {
	s := svc.NewServer(svc.Options{})
	var polls atomic.Int64
	h := s.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			polls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	client := &svc.Client{Base: hs.URL}

	// No worker: the job stays running for the whole test.
	sub, err := client.Submit(svc.SubmitRequest{Seed: 51, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	watchDone := make(chan error, 1)
	go func() { watchDone <- client.Watch(ctx, sub.JobID, func(svc.JobEvent) {}) }()
	defer func() {
		cancel()
		if err := <-watchDone; err != context.Canceled {
			t.Errorf("watch err = %v, want context.Canceled", err)
		}
	}()

	// The first round delivers "submitted"; the second blocks on the tip.
	deadline := time.Now().Add(5 * time.Second)
	for polls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watch never reached its blocking round")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := polls.Load()
	s.BeginDrain()
	time.Sleep(500 * time.Millisecond)
	if n := polls.Load() - before; n > 10 {
		t.Fatalf("watch sent %d /events requests in 500ms after drain, want at most 10", n)
	}
}

// TestWatchUnknownJobIsPermanent pins that Watch fails fast on a 404
// instead of retrying forever.
func TestWatchUnknownJobIsPermanent(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := client.Watch(ctx, "nope", func(svc.JobEvent) {})
	if err == nil || ctx.Err() != nil {
		t.Fatalf("watch err = %v (ctx %v), want a prompt 404", err, ctx.Err())
	}
	if !strings.Contains(err.Error(), "404") {
		t.Errorf("err %v does not carry the status", err)
	}
}

// TestHealthzDraining pins the drain protocol: 200 ok before, 503 with
// a "draining" JSON body after BeginDrain, and a blocked long-poll
// round answers at once so a graceful shutdown is not held hostage by a
// subscriber.
func TestHealthzDraining(t *testing.T) {
	s, client := startServer(t, svc.Options{})

	get := func() (int, svc.Health) {
		t.Helper()
		resp, err := http.Get(client.Base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h svc.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != svc.HealthOK {
		t.Fatalf("healthz before drain = %d %+v, want 200 ok", code, h)
	}

	// A live long-poll subscriber blocked on a running job's tip.
	sub, err := client.Submit(svc.SubmitRequest{Seed: 31, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	type round struct {
		evs []svc.JobEvent
		err error
	}
	pollDone := make(chan round, 1)
	go func() {
		evs, err := client.EventsLongPoll(context.Background(), sub.JobID, 1, 30*time.Second)
		pollDone <- round{evs, err}
	}()
	// Give the round a moment to block before draining.
	time.Sleep(50 * time.Millisecond)

	s.BeginDrain()
	if code, h := get(); code != http.StatusServiceUnavailable || h.Status != svc.HealthDraining {
		t.Fatalf("healthz after drain = %d %+v, want 503 draining", code, h)
	}
	select {
	case r := <-pollDone:
		if r.err != nil || len(r.evs) != 0 {
			t.Errorf("drained round = %+v, %v; want an empty list", r.evs, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll round did not end within 5s of BeginDrain")
	}
}

// TestMetricsEndpoint pins that the server's registry is mounted on the
// job mux and counts submissions without any worker involvement.
func TestMetricsEndpoint(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	if _, err := client.Submit(svc.SubmitRequest{Seed: 41, Trials: 1, Quick: true, Run: []string{"F1"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wsync_jobs_submitted_total 1",
		"wsync_jobs_running 1",
		"wsync_cache_misses_total 1",
		"# TYPE wsync_push_latency_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
