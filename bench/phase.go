package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs. setup builds the
// system under test and warms it up; the stack it returns then runs
// numbered units of work until the measuring window closes. A nil
// tracer builds the plain stack, with no wrapper anywhere.
type workload struct {
	name  string
	why   string
	setup func(o *options, tr *tracer) (stack, error)
}

// stack is a workload's system under test, built and warmed.
type stack interface {
	// bounds returns how many units a run makes at least, so its medians
	// have samples even on a slow machine, and at most (0 = no cap).
	bounds() (minUnits, maxUnits int)
	// unit runs unit u. Its inputs depend only on the seed and u, so a
	// traced run can repeat the plain run's units and compare outputs.
	unit(u int, parent int64) (unitOut, error)
	close()
}

// unitOut is what one unit of work produced.
type unitOut struct {
	// key names the unit's inputs; units with equal keys must produce
	// equal digests, in this run and against the goldens.
	key    string
	digest string
	ops    int
	failed int
	// latency is the wait the workload's user saw, when that is not the
	// whole unit (a served job, not the job plus its resubmission).
	latency float64
	// samples are further per-unit latencies, in seconds, by series.
	samples map[string]float64
}

// phase is one measuring window's record.
type phase struct {
	units    int
	walls    []float64 // per unit, seconds
	window   float64   // Σ unit durations, seconds
	nr       [3]uint64 // node-rounds by engine: sim, multihop, rendezvous
	nrUnit0  [3]uint64
	ops      int
	failed   int
	samples  map[string][]float64
	gcCycles uint32
	gcPause  float64 // seconds
	allocMB  float64
}

func (p *phase) nrTotal() uint64 { return p.nr[0] + p.nr[1] + p.nr[2] }

// runPhase runs units of st until the window closes: a new unit starts
// only while the previous one's duration still fits, past minUnits and
// before maxUnits. A non-negative fixed runs exactly that many units
// instead — the traced repetition of a plain window.
func runPhase(st stack, tr *tracer, window float64, minUnits, maxUnits, fixed int, chk *checker) (*phase, error) {
	p := &phase{samples: map[string][]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var last time.Duration
	for u := 0; ; u++ {
		if fixed >= 0 {
			if u >= fixed {
				break
			}
		} else if u >= minUnits {
			if maxUnits > 0 && u >= maxUnits {
				break
			}
			if (time.Since(start) + last).Seconds() > window {
				break
			}
		}
		sp := tr.open("unit", 0)
		before := nodeRounds()
		t := time.Now()
		out, err := st.unit(u, sp.id())
		last = time.Since(t)
		after := nodeRounds()
		sp.close()
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", u, err)
		}
		var nr [3]uint64
		for k := range nr {
			nr[k] = after[k] - before[k]
			p.nr[k] += nr[k]
		}
		if u == 0 {
			p.nrUnit0 = nr
		}
		wall := last.Seconds()
		if out.latency > 0 {
			wall = out.latency
		}
		p.window += last.Seconds()
		p.walls = append(p.walls, wall)
		p.ops += out.ops
		p.failed += out.failed
		for k, v := range out.samples {
			p.samples[k] = append(p.samples[k], v)
		}
		chk.unit(u, out, nr)
		p.units++
	}
	runtime.ReadMemStats(&ms1)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	return p, nil
}

// goldenEntry is the committed output of one unit: the digest of what it
// computed and the node-rounds each engine spent on it.
type goldenEntry struct {
	Digest     string    `json:"digest"`
	NodeRounds [3]uint64 `json:"node_rounds"`
}

// goldenFile maps sizes name → workload → unit key → entry.
type goldenFile map[string]map[string]map[string]goldenEntry

const goldenPath = "testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// checker compares every unit's outputs with the goldens and with the
// earlier units of the same run that had the same inputs.
type checker struct {
	o          *options
	golden     map[string]goldenEntry
	seen       map[string]goldenEntry
	checked    int
	mismatches int
}

func newChecker(o *options) (*checker, error) {
	var all goldenFile
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("reading embedded %s: %w", goldenPath, err)
	}
	return &checker{o: o, golden: all[o.sz.name][o.workload], seen: map[string]goldenEntry{}}, nil
}

func (c *checker) mismatch(format string, args ...any) {
	c.mismatches++
	c.o.logf("output check failed: "+format, args...)
}

func (c *checker) unit(u int, out unitOut, nr [3]uint64) {
	got := goldenEntry{Digest: out.digest, NodeRounds: nr}
	if prev, ok := c.seen[out.key]; ok {
		if prev != got {
			c.mismatch("%s unit %d (%s): %+v differs from an earlier unit with the same inputs: %+v", c.o.workload, u, out.key, got, prev)
		}
	} else {
		c.seen[out.key] = got
	}
	if c.o.golden != "" {
		return
	}
	if want, ok := c.golden[out.key]; ok {
		c.checked++
		if want != got {
			c.mismatch("%s unit %d (%s): %+v, golden %+v", c.o.workload, u, out.key, got, want)
		}
	}
}

// finish rewrites the golden file when asked to; otherwise it insists
// that a run at the default seed found goldens to compare against.
func (c *checker) finish() error {
	if c.o.golden == "" {
		if c.o.seed == 1 && c.checked == 0 {
			c.mismatch("%s: no golden outputs for seed 1 in %s", c.o.workload, goldenPath)
		}
		return nil
	}
	all := goldenFile{}
	if data, err := os.ReadFile(c.o.golden); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("reading %s: %w", c.o.golden, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if all[c.o.sz.name] == nil {
		all[c.o.sz.name] = map[string]map[string]goldenEntry{}
	}
	all[c.o.sz.name][c.o.workload] = c.seen
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.o.golden, append(data, '\n'), 0o644)
}
