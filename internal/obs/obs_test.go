package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exposition byte for byte: family order
// is registration order, labelled children sort by label value, and
// histogram buckets are cumulative with the synthetic +Inf tail.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	jobs := reg.Counter("wsync_jobs_submitted_total", "Jobs accepted.")
	running := reg.Gauge("wsync_jobs_running", "Jobs in state running.")
	lat := reg.Histogram("wsync_push_latency_seconds", "Push handler latency.", []float64{0.01, 0.1, 1})
	inflight := reg.GaugeVec("wsync_worker_inflight", "Leased experiments per worker.", "worker")

	jobs.Add(3)
	running.Set(2)
	running.Dec()
	lat.Observe(0.004)
	lat.Observe(0.05)
	lat.Observe(7)
	inflight.With("wB").Set(4)
	inflight.With("wA").Set(1)

	want := strings.Join([]string{
		"# HELP wsync_jobs_submitted_total Jobs accepted.",
		"# TYPE wsync_jobs_submitted_total counter",
		"wsync_jobs_submitted_total 3",
		"# HELP wsync_jobs_running Jobs in state running.",
		"# TYPE wsync_jobs_running gauge",
		"wsync_jobs_running 1",
		"# HELP wsync_push_latency_seconds Push handler latency.",
		"# TYPE wsync_push_latency_seconds histogram",
		`wsync_push_latency_seconds_bucket{le="0.01"} 1`,
		`wsync_push_latency_seconds_bucket{le="0.1"} 2`,
		`wsync_push_latency_seconds_bucket{le="1"} 2`,
		`wsync_push_latency_seconds_bucket{le="+Inf"} 3`,
		"wsync_push_latency_seconds_sum 7.054",
		"wsync_push_latency_seconds_count 3",
		"# HELP wsync_worker_inflight Leased experiments per worker.",
		"# TYPE wsync_worker_inflight gauge",
		`wsync_worker_inflight{worker="wA"} 1`,
		`wsync_worker_inflight{worker="wB"} 4`,
		"",
	}, "\n")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// Scraping twice yields identical bytes — the determinism contract.
	var again strings.Builder
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != b.String() {
		t.Error("two scrapes of identical state differ")
	}
}

// TestHandler checks the HTTP front end and its content type.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "Requests.").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "requests_total 1") {
		t.Errorf("body missing counter:\n%s", body)
	}
}

// TestIdempotentRegistration pins that re-registering an identical shape
// returns the same underlying metric, and a shape mismatch panics.
func TestIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "x")
	b := reg.Counter("c_total", "x")
	if a != b {
		t.Error("identical re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registered counter does not share state")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		reg.Gauge("c_total", "x")
	}()
	reg.Gauge("g", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label mismatch did not panic")
			}
		}()
		reg.GaugeVec("g", "x", "worker")
	}()
}

// TestLabelEscaping pins quote/backslash/newline escaping in label
// values.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeVec("esc", "x", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

// TestInvalidRegistrations pins the registration-time panics.
func TestInvalidRegistrations(t *testing.T) {
	reg := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name":     func() { reg.Counter("9bad", "x") },
		"bad label name":      func() { reg.GaugeVec("ok", "x", "bad-label") },
		"empty histogram":     func() { reg.Histogram("h", "x", nil) },
		"unsorted histogram":  func() { reg.Histogram("h2", "x", []float64{1, 0.5}) },
		"gauge vec no labels": func() { reg.GaugeVec("g_total", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestWithArityMismatch pins the label-value count check.
func TestWithArityMismatch(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("arity", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestConcurrentUse hammers every metric kind from many goroutines while
// scraping — run under -race in CI — and checks the final totals.
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("cc_total", "x")
	g := reg.Gauge("cg", "x")
	h := reg.Histogram("ch_seconds", "x", []float64{0.5})
	v := reg.GaugeVec("cv", "x", "w")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				h.Observe(0.25)
				v.With(name).Inc()
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := 0.25 * workers * per; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}
