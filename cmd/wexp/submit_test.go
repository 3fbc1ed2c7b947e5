package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsync/internal/shard"
	"wsync/internal/svc"
)

// TestSubmitServedSweep drives the -submit client end to end against an
// in-process wsyncd: a first sweep computed by a worker, then the same
// sweep resubmitted and answered entirely from the server's cache, with
// the greppable cache line on stderr.
func TestSubmitServedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	server := svc.NewServer(svc.Options{})
	defer server.Close()
	hs := httptest.NewServer(server.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- svc.RunWorker(ctx, svc.WorkerOptions{
			Server: hs.URL, Name: "w1", PollInterval: 10 * time.Millisecond, Parallelism: 1,
		})
	}()
	defer func() {
		cancel()
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	args := []string{"-submit", hs.URL, "-quick", "-trials", "1", "-run", "F1,L2", "-json"}
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("wexp -submit exited %d:\n%s", code, errBuf.String())
	}
	rep, err := shard.Decode(out.Bytes())
	if err != nil {
		t.Fatalf("served output is not a report: %v", err)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].Table.ID != "F1" {
		t.Fatalf("served report has wrong experiments: %+v", rep.Experiments)
	}
	if strings.Contains(errBuf.String(), "served entirely from cache") {
		t.Fatalf("first serving claimed a full cache hit:\n%s", errBuf.String())
	}

	out.Reset()
	errBuf.Reset()
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("resubmission exited %d:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "served entirely from cache") {
		t.Fatalf("resubmission did not report the cache hit:\n%s", errBuf.String())
	}
	if _, err := shard.Decode(out.Bytes()); err != nil {
		t.Fatalf("cache-served output is not a report: %v", err)
	}
}

// TestSubmitFlagValidation pins -submit's flag exclusions.
func TestSubmitFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-submit", "http://x", "-shards", "2", "-shard-index", "0"},
		{"-submit", "http://x", "-format", "csv"},
		{"-submit", "http://x", "-out", "dir"},
		// Assignments carry no NoBatch field: the workers would silently
		// batch-step, so the request is refused rather than mislabelled.
		{"-submit", "http://x", "-nobatch"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2 (stderr: %s)", args, code, errBuf.String())
		}
	}
}
