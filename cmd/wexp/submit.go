package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsync/internal/svc"
)

// runSubmit is the client side of the wsyncd job service: it submits
// the sweep described by the flags, follows the job's event stream
// (SSE, with long-poll and finally plain status-poll fallbacks) until
// the job completes, and writes the merged wsync-bench/v1 report to
// stdout — the same document an unsharded `wexp -json` run would
// produce, modulo the volatile fields. Progress goes to stderr; a sweep
// answered entirely by the server's content-addressed cache says so
// there.
func runSubmit(base string, req svc.SubmitRequest, pollEvery time.Duration, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &svc.Client{Base: base}
	sub, err := client.Submit(req)
	if err != nil {
		fmt.Fprintf(stderr, "wexp: -submit: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wexp: -submit: job %s: %d experiments, %d from cache\n", sub.JobID, sub.Total, sub.Cached)

	// One progress line per observed change, whatever transport
	// delivered it. Returns whether anything changed, so the polling
	// fallback can reset its backoff on movement.
	lastDone, lastRetries := -1, -1
	progress := func(jobID string, done, total, retries int) bool {
		if done == lastDone && retries == lastRetries {
			return false
		}
		lastDone, lastRetries = done, retries
		fmt.Fprintf(stderr, "wexp: -submit: job %s: %d/%d done, %d retries\n", jobID, done, total, retries)
		return true
	}

	// Watch prefers the SSE stream and falls back to long-polling by
	// itself; only a server without the events endpoint at all (a 4xx)
	// drops us to the classic fixed-status loop, jittered.
	werr := client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) {
		progress(ev.JobID, ev.Done, ev.Total, ev.Retries)
	})
	if werr != nil && ctx.Err() == nil {
		fmt.Fprintf(stderr, "wexp: -submit: event stream unavailable (%v); falling back to status polling\n", werr)
		werr = pollToCompletion(ctx, client, sub.JobID, pollEvery, progress)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "wexp: -submit: interrupted; job %s keeps running on the server\n", sub.JobID)
		return 1
	}
	if werr != nil {
		fmt.Fprintf(stderr, "wexp: -submit: %v\n", werr)
		return 1
	}

	// Terminal state reached; the report travels once, via Status.
	st, err := client.Status(sub.JobID)
	if err != nil {
		fmt.Fprintf(stderr, "wexp: -submit: %v\n", err)
		return 1
	}
	switch st.State {
	case svc.StateDone:
		if st.Cached == st.Total {
			fmt.Fprintf(stderr, "wexp: -submit: job %s served entirely from cache\n", st.JobID)
		}
		if err := st.Report.Encode(stdout); err != nil {
			fmt.Fprintf(stderr, "wexp: %v\n", err)
			return 1
		}
		return 0
	case svc.StateFailed:
		fmt.Fprintf(stderr, "wexp: -submit: job %s failed: %s\n", st.JobID, st.Error)
		return 1
	default:
		fmt.Fprintf(stderr, "wexp: -submit: job %s still %s after its event stream ended\n", st.JobID, st.State)
		return 1
	}
}

// pollToCompletion is the last-resort transport: fixed Status polling
// against a server without the events endpoint, with jittered
// exponential backoff that resets whenever the job moves.
func pollToCompletion(ctx context.Context, client *svc.Client, jobID string, pollEvery time.Duration, progress func(string, int, int, int) bool) error {
	backoff := svc.Backoff{Base: pollEvery, Max: 16 * pollEvery}
	for {
		st, err := client.Status(jobID)
		if err != nil {
			return err
		}
		if progress(st.JobID, st.Done, st.Total, st.Retries) {
			backoff.Reset()
		}
		if st.State != svc.StateRunning {
			return nil
		}
		t := time.NewTimer(backoff.Next())
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// svcSubmitRequest assembles the submit body from the sweep-identity
// flags. Unknown experiment ids are the server's to reject — it owns
// the catalogue version being served.
func svcSubmitRequest(seed uint64, trials int, quick, full bool, runIDs string) svc.SubmitRequest {
	return svc.SubmitRequest{Seed: seed, Trials: trials, Quick: quick, Full: full, Run: splitRunIDs(runIDs)}
}

// splitRunIDs turns the -run flag value into the selection list the
// submit API expects (nil for the full catalogue).
func splitRunIDs(runIDs string) []string {
	if runIDs == "" {
		return nil
	}
	var ids []string
	for _, id := range strings.Split(runIDs, ",") {
		ids = append(ids, strings.TrimSpace(id))
	}
	return ids
}
