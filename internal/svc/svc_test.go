package svc_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"wsync/internal/harness"
	"wsync/internal/shard"
	"wsync/internal/svc"

	"net/http/httptest"
)

// testLogger adapts t.Logf into a slog.Logger so service logs land in
// the test output.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startServer builds a Server plus its httptest front end and returns a
// client. Cleanup stops both.
func startServer(t *testing.T, opts svc.Options) (*svc.Server, *svc.Client) {
	t.Helper()
	s := svc.NewServer(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &svc.Client{Base: hs.URL}
}

// startWorker runs one RunWorker goroutine with the given lane count;
// cleanup cancels and joins it, so no worker outlives its test.
func startWorker(t *testing.T, client *svc.Client, name string, parallelism int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- svc.RunWorker(ctx, svc.WorkerOptions{
			Server:       client.Base,
			Name:         name,
			PollInterval: 10 * time.Millisecond,
			Parallelism:  parallelism,
			Log:          testLogger(t),
		})
	}()
	var once bool
	stop = func() {
		if once {
			return
		}
		once = true
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}
	t.Cleanup(stop)
	return stop
}

// directReport computes the report an unsharded `wexp -json` run of the
// same sweep would produce (volatile fields aside): a serial RunEntry
// loop, node_rounds included.
func directReport(t *testing.T, req svc.SubmitRequest) *shard.Report {
	t.Helper()
	opt := harness.Options{Trials: req.Trials, Seed: req.Seed, Quick: req.Quick, Full: req.Full, Parallelism: 1}
	rep := &shard.Report{
		Schema:          shard.Schema,
		Trials:          req.Trials,
		EffectiveTrials: opt.EffectiveTrials(),
		Seed:            req.Seed,
		Quick:           req.Quick,
		Full:            req.Full,
		Experiments:     []shard.Entry{},
	}
	for _, id := range req.Run {
		e, ok := harness.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		ent, _, err := shard.RunEntry(e, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep.Experiments = append(rep.Experiments, ent)
	}
	return rep
}

// encodeZeroed renders a report with the volatile fields zeroed — the
// byte-comparison form of docs/BENCH_FORMAT.md.
func encodeZeroed(t *testing.T, rep *shard.Report) []byte {
	t.Helper()
	rep.ZeroVolatile()
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitForState polls the job until it leaves "running" or the deadline
// passes.
func waitForState(t *testing.T, client *svc.Client, jobID string, timeout time.Duration) *svc.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := client.Status(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != svc.StateRunning || time.Now().After(deadline) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobServiceEndToEnd is the acceptance path in miniature: a
// submitted sweep served by one worker merges byte-identical (after
// ZeroVolatile) to the unsharded report; immediate resubmission is
// served entirely from the content-addressed cache with no worker
// involvement; and a different seed misses the cache.
func TestJobServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	req := svc.SubmitRequest{Seed: 3, Trials: 1, Quick: true, Run: []string{"F1", "L2"}}
	want := encodeZeroed(t, directReport(t, req))

	_, client := startServer(t, svc.Options{})
	stopWorker := startWorker(t, client, "w1", 1)

	sub, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Total != 2 || sub.Cached != 0 {
		t.Fatalf("submit = %+v, want total 2, cached 0", sub)
	}
	st := waitForState(t, client, sub.JobID, 60*time.Second)
	if st.State != svc.StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}
	if got := encodeZeroed(t, st.Report); !bytes.Equal(got, want) {
		t.Fatalf("served report differs from unsharded run:\n--- served ---\n%s\n--- direct ---\n%s", got, want)
	}

	// No worker may be needed for the resubmission: stop it first.
	stopWorker()
	sub2, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Cached != sub2.Total {
		t.Fatalf("resubmission: cached %d of %d, want all from cache", sub2.Cached, sub2.Total)
	}
	st2, err := client.Status(sub2.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != svc.StateDone {
		t.Fatalf("cached job state = %s, want done without any worker", st2.State)
	}
	if got := encodeZeroed(t, st2.Report); !bytes.Equal(got, want) {
		t.Fatal("cache-served report differs from the first serving")
	}

	// The cache key includes the seed: a different seed is a miss.
	miss := req
	miss.Seed = 4
	sub3, err := client.Submit(miss)
	if err != nil {
		t.Fatal(err)
	}
	if sub3.Cached != 0 {
		t.Fatalf("different seed hit the cache (%d of %d)", sub3.Cached, sub3.Total)
	}

	// A selection submitted out of catalogue order is still served in
	// catalogue order — Merge's ordering contract.
	rev := svc.SubmitRequest{Seed: 3, Trials: 1, Quick: true, Run: []string{"L2", "F1"}}
	sub4, err := client.Submit(rev)
	if err != nil {
		t.Fatal(err)
	}
	if sub4.Cached != 2 {
		t.Fatalf("reversed selection: cached %d, want 2", sub4.Cached)
	}
	st4, err := client.Status(sub4.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if got := st4.Report.Experiments; len(got) != 2 || got[0].Table.ID != "F1" || got[1].Table.ID != "L2" {
		t.Fatalf("reversed selection not served in catalogue order")
	}
}

// TestWorkerLanes pins the worker's lanes: one worker with Parallelism 2
// takes a whole multi-experiment job as one assignment and runs it on two
// lanes side by side. Its merged report is byte-identical to a serial
// RunEntry loop, node_rounds included, because every run meters its own
// node-rounds. The selection covers each engine: the round core (T10a,
// L9, X5), multihop (X7), rendezvous (T4, R1) and analytic rows (L2).
func TestWorkerLanes(t *testing.T) {
	req := svc.SubmitRequest{Seed: 6, Trials: 1, Quick: true,
		Run: []string{"L2", "T4", "T10a", "L9", "X5", "X7", "R1"}}
	want := encodeZeroed(t, directReport(t, req))

	_, client := startServer(t, svc.Options{})
	startWorker(t, client, "lanes", 2)
	sub, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitForState(t, client, sub.JobID, 120*time.Second)
	if st.State != svc.StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}
	if got := encodeZeroed(t, st.Report); !bytes.Equal(got, want) {
		t.Fatalf("two-lane report differs from the serial RunEntry loop:\n--- lanes ---\n%s\n--- serial ---\n%s", got, want)
	}
}

// TestKilledWorkerReplan pins retry/re-plan: a worker takes the whole
// job and goes silent; after its heartbeat deadline the experiments are
// re-planned onto a live worker and the job still completes with a
// report identical to the direct run.
func TestKilledWorkerReplan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	req := svc.SubmitRequest{Seed: 5, Trials: 1, Quick: true, Run: []string{"F1", "L2"}}
	want := encodeZeroed(t, directReport(t, req))

	_, client := startServer(t, svc.Options{
		HeartbeatTimeout: time.Second,
		RetryBase:        time.Millisecond,
		MaxAttempts:      5,
		Log:              testLogger(t),
	})

	sub, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The staller is the only live worker, so it is assigned the entire
	// pending pool — then never pushes and never polls again.
	a, err := client.Poll("staller")
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || len(a.IDs) != 2 {
		t.Fatalf("staller assignment = %+v, want both experiments", a)
	}

	startWorker(t, client, "survivor", 1)
	st := waitForState(t, client, sub.JobID, 90*time.Second)
	if st.State != svc.StateDone {
		t.Fatalf("job state = %s (err %q), want done after re-plan", st.State, st.Error)
	}
	if st.Retries == 0 {
		t.Fatal("job completed without any retries; the staller's lease never expired")
	}
	if got := encodeZeroed(t, st.Report); !bytes.Equal(got, want) {
		t.Fatal("re-planned report differs from the unsharded run")
	}
}

// TestAttemptsExhaustedFailsJob pins the retry bound: when every
// assignment dies, the job fails with a diagnostic naming the
// experiment instead of retrying forever.
func TestAttemptsExhaustedFailsJob(t *testing.T) {
	_, client := startServer(t, svc.Options{
		HeartbeatTimeout: 50 * time.Millisecond,
		RetryBase:        time.Millisecond,
		MaxAttempts:      1,
	})
	sub, err := client.Submit(svc.SubmitRequest{Seed: 1, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	if a, err := client.Poll("doomed"); err != nil || a == nil {
		t.Fatalf("poll = %+v, %v", a, err)
	}
	st := waitForState(t, client, sub.JobID, 10*time.Second)
	if st.State != svc.StateFailed {
		t.Fatalf("job state = %s, want failed after exhausting attempts", st.State)
	}
	if !strings.Contains(st.Error, "F1") || !strings.Contains(st.Error, "doomed") {
		t.Fatalf("failure diagnostic %q does not name the experiment and worker", st.Error)
	}
}

// TestSkippedPushReplannedOnPoll pins the poll rule of the protocol: a
// worker that polls again without pushing an id it was assigned (its run
// failed, or the push was lost in transport) hands that id back, even
// though its polls keep its lease from ever expiring. With one attempt
// allowed the job fails at once with a diagnostic naming the experiment
// and the worker; with two, another worker completes it.
func TestSkippedPushReplannedOnPoll(t *testing.T) {
	req := svc.SubmitRequest{Seed: 1, Trials: 1, Quick: true, Run: []string{"F1"}}
	skip := func(t *testing.T, maxAttempts int) (*svc.Client, *svc.SubmitResponse) {
		_, client := startServer(t, svc.Options{
			HeartbeatTimeout: time.Minute, // expiry must not be what rescues the job
			RetryBase:        time.Millisecond,
			MaxAttempts:      maxAttempts,
			Log:              testLogger(t),
		})
		sub, err := client.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if a, err := client.Poll("skipper"); err != nil || a == nil {
			t.Fatalf("first poll = %+v, %v", a, err)
		}
		if a, err := client.Poll("skipper"); err != nil || a != nil {
			t.Fatalf("second poll = %+v, %v; want no assignment inside the retry backoff", a, err)
		}
		return client, sub
	}

	t.Run("attempts exhausted", func(t *testing.T) {
		client, sub := skip(t, 1)
		st, err := client.Status(sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != svc.StateFailed {
			t.Fatalf("job state = %s, want failed once the skipped id used its only attempt", st.State)
		}
		if !strings.Contains(st.Error, "F1") || !strings.Contains(st.Error, "skipper") {
			t.Fatalf("failure diagnostic %q does not name the experiment and worker", st.Error)
		}
	})

	t.Run("replanned", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs real experiments")
		}
		client, sub := skip(t, 2)
		st, err := client.Status(sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != svc.StateRunning || st.Retries != 1 {
			t.Fatalf("after the skip: state %s, retries %d; want running with 1 retry", st.State, st.Retries)
		}
		startWorker(t, client, "w2", 1)
		st = waitForState(t, client, sub.JobID, 30*time.Second)
		if st.State != svc.StateDone {
			t.Fatalf("job state = %s (err %q), want done by the second worker", st.State, st.Error)
		}
	})
}

// TestConflictingPushFailsJob pins the determinism cross-check: two
// workers pushing different results for the same experiment is a bug
// somewhere, and the job fails loudly rather than silently keeping one.
func TestConflictingPushFailsJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	e, _ := harness.ByID("F1")
	tbl, err := e.Run(harness.Options{Trials: 1, Quick: true, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := shard.Entry{Table: tbl, ElapsedMS: 1, NodeRounds: 42}
	bad := shard.Entry{Table: tbl, ElapsedMS: 2, NodeRounds: 43} // node_rounds is deterministic: a mismatch is a conflict

	_, client := startServer(t, svc.Options{})
	sub, err := client.Submit(svc.SubmitRequest{Seed: 9, Trials: 1, Quick: true, Run: []string{"F1", "L2"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Poll("wa"); err != nil {
		t.Fatal(err)
	}
	if state, err := client.Push("wa", sub.JobID, []shard.Entry{good}); err != nil || state != svc.StateRunning {
		t.Fatalf("first push: state %q, err %v", state, err)
	}
	// Identical duplicate (volatile fields differ) collapses harmlessly.
	dup := good
	dup.ElapsedMS = 99
	if state, err := client.Push("wb", sub.JobID, []shard.Entry{dup}); err != nil || state != svc.StateRunning {
		t.Fatalf("identical duplicate push: state %q, err %v", state, err)
	}
	// Conflicting duplicate fails the job.
	if state, err := client.Push("wc", sub.JobID, []shard.Entry{bad}); err != nil || state != svc.StateFailed {
		t.Fatalf("conflicting push: state %q, err %v; want failed", state, err)
	}
	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Error, "conflicting results") {
		t.Fatalf("error %q does not name the conflict", st.Error)
	}
}

// TestSubmitValidation pins the submit-time rejections.
func TestSubmitValidation(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	cases := []struct {
		req  svc.SubmitRequest
		want string
	}{
		{svc.SubmitRequest{Quick: true, Full: true}, "mutually exclusive"},
		{svc.SubmitRequest{Run: []string{"ZZZ"}}, "unknown experiment"},
		{svc.SubmitRequest{Run: []string{"F1", "F1"}}, "duplicate experiment"},
	}
	for _, c := range cases {
		if _, err := client.Submit(c.req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%+v) err = %v, want mention of %q", c.req, err, c.want)
		}
	}
	if _, err := client.Status("nope"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("Status(nope) err = %v", err)
	}
}
