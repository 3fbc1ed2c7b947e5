package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefTimeBuckets is the default latency histogram layout, in seconds:
// 1ms to 10s in roughly half-decade steps. It suits the service-layer
// latencies this package was built for (HTTP handlers, experiment wall
// times); callers with other ranges pass their own bounds.
var DefTimeBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is lock-free: one atomic increment plus a CAS loop for the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind tags a family for exposition and re-registration checks.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: either a single unlabelled series or a set
// of labelled children (a "vec").
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // nil for unlabelled families
	bounds []float64

	mu       sync.Mutex
	single   any            // *Counter / *Gauge / *Histogram when labels == nil
	children map[string]any // joined label values -> metric
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds or revalidates a family. Registering the same name twice
// with an identical shape returns the existing family (so package-level
// helpers can be idempotent); a shape mismatch panics — two call sites
// disagreeing about a metric is a programming error worth dying for.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if name == "" || !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds}
	if labels != nil {
		f.children = make(map[string]any)
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func validName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// Counter registers (or returns) the unlabelled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// Gauge registers (or returns) the unlabelled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Gauge{}
	}
	return f.single.(*Gauge)
}

// Histogram registers (or returns) the unlabelled histogram name with
// the given ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets are not ascending", name))
	}
	bounds := append([]float64(nil), buckets...)
	f := r.register(name, help, kindHistogram, nil, bounds)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = newHistogram(f.bounds)
	}
	return f.single.(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) the labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs labels (use Gauge)", name))
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, append([]string(nil), labels...), nil)}
}

// With returns the child gauge for the given label values (created on
// first use). The value count must match the registered label names.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// childKey joins label values with an unprintable separator so distinct
// value tuples never collide.
func childKey(values []string) string { return strings.Join(values, "\x00") }

func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	return m
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4). Families appear in
// registration order and labelled children in sorted label-value order,
// so identical registry state always renders identical bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	if f.labels == nil {
		f.mu.Lock()
		m := f.single
		f.mu.Unlock()
		if m != nil {
			renderMetric(b, f, m, "")
		}
		return
	}

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	for i, k := range keys {
		renderMetric(b, f, children[i], labelString(f.labels, strings.Split(k, "\x00")))
	}
}

// labelString renders {name="value",...} with Prometheus escaping.
func labelString(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func renderMetric(b *strings.Builder, f *family, m any, labels string) {
	switch v := m.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labels, v.Value())
	case *Gauge:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labels, v.Value())
	case *Histogram:
		// Cumulative bucket counts, one snapshot: load each bucket once so
		// _count equals the +Inf bucket even under concurrent Observes.
		cum := uint64(0)
		for i, bound := range v.bounds {
			cum += v.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketLabels(labels, formatFloat(bound)), cum)
		}
		cum += v.counts[len(v.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketLabels(labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(v.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, cum)
	}
}

// bucketLabels splices le="bound" into an existing (possibly empty)
// label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the exposition — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
