package svc_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsync/internal/svc"
)

// TestRequestBodyLimits pins how the server decodes request bodies on
// every endpoint that takes one: a body over the size cap is answered 413
// with ErrBodyTooLarge, unknown fields and data after the JSON value are
// answered 400, and a valid body gets through to the handler.
func TestRequestBodyLimits(t *testing.T) {
	s := svc.NewServer(svc.Options{})
	defer s.Close()
	h := s.Handler()
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}

	// A real job, so the valid push has something to fold into.
	sub := do("/v1/jobs", `{"seed":3,"trials":1,"quick":true,"run":["F1"]}`)
	var job svc.SubmitResponse
	if err := json.Unmarshal(sub.Body.Bytes(), &job); sub.Code != http.StatusOK || err != nil {
		t.Fatalf("setup submit: %d %s (%v)", sub.Code, sub.Body, err)
	}

	huge := strings.Repeat("a", 8<<20)
	endpoints := []struct {
		path, valid, field string
	}{
		{"/v1/jobs", `{"seed":3,"trials":1,"quick":true,"run":["L2"]}`, "seed"},
		{"/v1/poll", `{"worker":"wa"}`, "worker"},
		{"/v1/push", `{"worker":"wa","job_id":"` + job.JobID + `","entries":[]}`, "worker"},
	}
	for _, ep := range endpoints {
		for _, c := range []struct {
			name, body string
			code       int
			want       string
		}{
			{"valid", ep.valid, http.StatusOK, ""},
			{"oversized", `{"` + ep.field + `":"` + huge + `"}`, http.StatusRequestEntityTooLarge, svc.ErrBodyTooLarge.Error()},
			{"unknown-field", `{"bogus":1}`, http.StatusBadRequest, `unknown field "bogus"`},
			{"trailing-garbage", ep.valid + ` xyz`, http.StatusBadRequest, svc.ErrTrailingData.Error()},
			{"trailing-value", ep.valid + `{}`, http.StatusBadRequest, svc.ErrTrailingData.Error()},
		} {
			rec := do(ep.path, c.body)
			if rec.Code != c.code {
				t.Errorf("%s %s: status %d, want %d (%s)", ep.path, c.name, rec.Code, c.code, strings.TrimSpace(rec.Body.String()))
				continue
			}
			if !strings.Contains(rec.Body.String(), c.want) {
				t.Errorf("%s %s: body %q does not mention %q", ep.path, c.name, rec.Body.String(), c.want)
			}
		}
	}
}
