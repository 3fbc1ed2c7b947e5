package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsync/internal/freqset"
	"wsync/internal/multihop"
	"wsync/internal/pool"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/sim"
)

// Span is one timed call across a layer boundary. Times are nanoseconds
// since the traced run began; Parent is 0 for a root. Calls aggregates
// the wrapped interface calls made inside the span (adversary, churn,
// jammer, masks, agent construction): one span per call would outnumber
// everything else by orders of magnitude.
type Span struct {
	ID     int64      `json:"id"`
	Parent int64      `json:"parent"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Calls  []CallStat `json:"calls,omitempty"`
}

// CallStat totals one wrapped interface's calls inside a span.
type CallStat struct {
	Name  string `json:"name"`
	Calls uint64 `json:"calls"`
	NS    int64  `json:"ns"`
}

// tracer keeps spans and per-layer tallies in memory until the run ends.
// A nil *tracer is the plain run: every method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []Span
	samples map[string][]float64
	sums    map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// sample appends one observation to a series.
func (t *tracer) sample(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], v)
	t.mu.Unlock()
}

// add accumulates into a total.
func (t *tracer) add(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

// openSpan is a span being timed; nil when tracing is off.
type openSpan struct {
	tr *tracer
	s  Span
}

func (t *tracer) open(name string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{tr: t, s: Span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: t.now()}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// close records the span and returns its duration in nanoseconds.
func (o *openSpan) close(calls ...CallStat) int64 {
	if o == nil {
		return 0
	}
	o.s.End = o.tr.now()
	o.s.Calls = calls
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
	return o.s.End - o.s.Start
}

func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes totals, per span name, each span's duration minus the part of
// it that its child spans cover (children running in parallel count
// once) and minus its wrapped calls, in seconds.
func selfTimes(spans []Span) map[string]float64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		lo, hi := s.Start, s.Start
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		for _, c := range s.Calls {
			covered += c.NS
		}
		self[s.Name] += float64(max(s.End-s.Start-covered, 0)) / 1e9
	}
	return self
}

// clock times the calls of one wrapped interface. Each wrapper belongs to
// a single engine run, which calls it from one goroutine.
type clock struct {
	calls uint64
	ns    int64
}

func (c *clock) since(t time.Time) {
	c.ns += int64(time.Since(t))
	c.calls++
}

func (c *clock) stat(name string) CallStat { return CallStat{Name: name, Calls: c.calls, NS: c.ns} }

// timedAdversary times sim.Adversary.Disrupt.
type timedAdversary struct {
	inner sim.Adversary
	clock
}

func (a *timedAdversary) Disrupt(r uint64, h *sim.History) *freqset.Set {
	t := time.Now()
	s := a.inner.Disrupt(r, h)
	a.since(t)
	return s
}

// timedChurn times multihop.ChurnModel.Deltas and counts the edges it
// adds and removes.
type timedChurn struct {
	inner multihop.ChurnModel
	clock
	edges uint64
}

func (c *timedChurn) Deltas(r uint64) (add, remove []multihop.Edge) {
	t := time.Now()
	add, remove = c.inner.Deltas(r)
	c.since(t)
	c.edges += uint64(len(add) + len(remove))
	return add, remove
}

// timedJammer times rendezvous.Jammer.Block.
type timedJammer struct {
	inner rendezvous.Jammer
	clock
}

func (j *timedJammer) Block(rd *rendezvous.Round) *freqset.Set {
	t := time.Now()
	s := j.inner.Block(rd)
	j.since(t)
	return s
}

// timedMasks times rendezvous.MaskModel.MaskDeltas.
type timedMasks struct {
	inner rendezvous.MaskModel
	clock
}

func (m *timedMasks) MaskDeltas(r uint64) (block, unblock [][2]int) {
	t := time.Now()
	block, unblock = m.inner.MaskDeltas(r)
	m.since(t)
	return block, unblock
}

// agentFactory is the NewAgent callback the engines take.
type agentFactory = func(sim.NodeID, uint64, *rng.Rand) sim.Agent

// timedAgents times a NewAgent callback. It returns the agent the inner
// callback built, so arena cohorts still batch-step.
func timedAgents(inner agentFactory, c *clock) agentFactory {
	return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
		t := time.Now()
		a := inner(id, activation, r)
		c.since(t)
		return a
	}
}

// runPool is pool.Run. When traced it also records a span, each worker's
// time inside fn (for pool.busy_frac), and the wall time left after the
// first worker ran dry (pool.tail_s). fn receives the span to parent its
// own spans on.
func runPool(tr *tracer, parent int64, workers, n int, fn func(w, i int, parent int64)) {
	if tr == nil {
		pool.Run(workers, n, func(w, i int) { fn(w, i, 0) })
		return
	}
	sp := tr.open("pool.Run", parent)
	busy := make([]int64, workers)
	lastEnd := make([]int64, workers)
	pool.Run(workers, n, func(w, i int) {
		t := tr.now()
		fn(w, i, sp.id())
		end := tr.now()
		busy[w] += end - t
		lastEnd[w] = end
	})
	wall := sp.close()
	end := sp.s.End
	used := min(workers, n)
	dry := end
	var total int64
	for w := 0; w < used; w++ {
		total += busy[w]
		dry = min(dry, lastEnd[w])
	}
	tr.add("pool.busy_ns", float64(total))
	tr.add("pool.capacity_ns", float64(int64(used)*wall))
	tr.sample("pool.tail_s", float64(end-dry)/1e9)
}
