package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"wsync/internal/svc"
)

// runSubmit is the client side of the wsyncd job service: it submits
// the sweep described by the flags, follows the job's events with
// svc.Client.Watch (long-poll) until the job completes, and writes the
// merged wsync-bench/v1 report to stdout — the same document an
// unsharded `wexp -json` run would produce, modulo the volatile fields.
// Progress goes to stderr; a sweep answered entirely by the server's
// content-addressed cache says so there. A Watch error ends the submit
// with exit 1.
func runSubmit(base string, req svc.SubmitRequest, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &svc.Client{Base: base}
	sub, err := client.Submit(req)
	if err != nil {
		fmt.Fprintf(stderr, "wexp: -submit: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wexp: -submit: job %s: %d experiments, %d from cache\n", sub.JobID, sub.Total, sub.Cached)

	// One progress line per observed change in the counters.
	lastDone, lastRetries := -1, -1
	werr := client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) {
		if ev.Done == lastDone && ev.Retries == lastRetries {
			return
		}
		lastDone, lastRetries = ev.Done, ev.Retries
		fmt.Fprintf(stderr, "wexp: -submit: job %s: %d/%d done, %d retries\n", ev.JobID, ev.Done, ev.Total, ev.Retries)
	})
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
