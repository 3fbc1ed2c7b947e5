package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"wsync/internal/shard"
)

// Client speaks the wsyncd wire protocol. The zero HTTP field uses
// http.DefaultClient.
type Client struct {
	Base string // server base URL, e.g. http://127.0.0.1:8080
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call POSTs (or GETs, when in is nil and method says so) one JSON
// round trip, decoding the response into out. Non-2xx responses become
// errors carrying the server's message.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("svc: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, body)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(method, path, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("svc: decoding %s response: %w", path, err)
	}
	return nil
}

// Submit submits a sweep and returns its job id.
func (c *Client) Submit(req SubmitRequest) (*SubmitResponse, error) {
	var out SubmitResponse
	if err := c.call(context.Background(), http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status fetches a job's state (including the merged report once done).
func (c *Client) Status(jobID string) (*JobStatus, error) {
	var out JobStatus
	if err := c.call(context.Background(), http.MethodGet, "/v1/jobs/"+jobID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Poll registers worker and asks for an assignment; nil means no work.
func (c *Client) Poll(worker string) (*Assignment, error) {
	var out PollResponse
	if err := c.call(context.Background(), http.MethodPost, "/v1/poll", PollRequest{Worker: worker}, &out); err != nil {
		return nil, err
	}
	return out.Assignment, nil
}

// Push returns completed entries and reports the job's state after.
func (c *Client) Push(worker, jobID string, entries []shard.Entry) (string, error) {
	var out PushResponse
	err := c.call(context.Background(), http.MethodPost, "/v1/push", PushRequest{Worker: worker, JobID: jobID, Entries: entries}, &out)
	if err != nil {
		return "", err
	}
	return out.State, nil
}

// APIError is a non-2xx server answer, distinguishable from transport
// failures so callers can tell "the server said no" (permanent) from
// "the server is unreachable" (retry).
type APIError struct {
	StatusCode int
	Method     string
	Path       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("svc: %s %s: %d: %s", e.Method, e.Path, e.StatusCode, e.Message)
}

func statusError(method, path string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &APIError{
		StatusCode: resp.StatusCode,
		Method:     method,
		Path:       path,
		Message:    strings.TrimSpace(string(msg)),
	}
}

// permanentErr reports whether err is a server verdict no retry can
// change (any 4xx — unknown job, bad cursor).
func permanentErr(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode/100 == 4
}

// EventsLongPoll fetches the events after the cursor, letting the
// server hold the request up to wait when none are pending yet.
func (c *Client) EventsLongPoll(ctx context.Context, jobID string, after int, wait time.Duration) ([]JobEvent, error) {
	q := url.Values{"after": {strconv.Itoa(after)}, "wait": {wait.String()}}
	var out EventsResponse
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/events?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Events, nil
}

// Watch follows a job to its terminal state by long-polling its events
// endpoint, invoking fn for every event exactly once, in sequence
// order; the ?after cursor resumes each round where the last ended. A
// round that delivers no new event (its wait elapsed, or a draining
// server answered at once) and a transport error both sleep a jittered
// exponential backoff before the next round; a new event resets it.
// Returns nil after a terminal event, ctx.Err() on cancellation, or
// the first permanent (4xx) error.
func (c *Client) Watch(ctx context.Context, jobID string, fn func(JobEvent)) error {
	after := 0
	backoff := Backoff{Base: 200 * time.Millisecond, Max: 5 * time.Second}
	for {
		evs, err := c.EventsLongPoll(ctx, jobID, after, 25*time.Second)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case permanentErr(err):
			return err
		}
		moved := false
		for _, ev := range evs {
			if ev.Seq <= after {
				continue
			}
			after = ev.Seq
			moved = true
			fn(ev)
			if ev.State != StateRunning {
				return nil
			}
		}
		if moved {
			backoff.Reset()
			continue
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
