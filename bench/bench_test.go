package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"wsync/internal/harness"
	"wsync/internal/svc"
)

var update = flag.Bool("update", false, "rewrite the tiny-size goldens in "+goldenPath)

// tinySizes shrink every workload so the whole suite runs in seconds.
func tinySizes() sizes {
	return sizes{
		name: "tiny",
		sweep: sweepSize{
			opt:      harness.Options{Trials: 1, Quick: true, Parallelism: poolWorkers},
			warm:     harness.Options{Trials: 1, Quick: true, Parallelism: poolWorkers},
			run:      []string{"F1", "T10a", "X8", "X9", "R2"},
			minUnits: 1,
		},
		served: servedSize{
			req:      svc.SubmitRequest{Trials: 1, Quick: true, Run: []string{"F1", "T10a", "R2"}},
			poll:     5 * time.Millisecond,
			minUnits: 2,
			maxUnits: 2,
		},
		dense: denseSize{
			f: 16, t: 2,
			shapes:     []denseShape{{n: 32, rounds: 64}, {n: 64, rounds: 32}},
			reps:       1,
			warmRounds: 8,
			minUnits:   1,
		},
		sparse: sparseSize{
			groups: 1,
			relay: relaySize{n: 64, radius: 0.25, speed: 0.01, movers: 8,
				f: 6, t: 2, bound: 8, rounds: 32, warmRounds: 8},
			gallery: gallerySize{adversaries: []string{"reactive", "stalker", "sweep", "bursty"},
				f: 8, t: 3, bound: 64, active: 4, gap: 5, maxRounds: 1 << 20, warmRounds: 100},
			rdv: rdvSize{parties: 4, f: 8, t: 2, rate: 0.02, maxRounds: 1 << 14,
				perGroup: 2, warm: 1},
			minUnits: 1,
		},
	}
}

func tinyOptions(t *testing.T, name string, trace bool, log *bytes.Buffer) *options {
	o := &options{
		workload: name,
		seed:     1,
		seconds:  0.001,
		trace:    trace,
		sz:       tinySizes(),
		log:      log,
	}
	if trace {
		o.spans = t.TempDir() + "/spans.json"
	}
	if *update && !trace {
		o.golden = goldenPath
	}
	return o
}

func names(defs []metricDef) []string {
	var ns []string
	for _, d := range defs {
		ns = append(ns, d.Name)
	}
	sort.Strings(ns)
	return ns
}

func perLayerDefs() []metricDef {
	var ds []metricDef
	for _, m := range perLayer() {
		ds = append(ds, m.metricDef)
	}
	return ds
}

// TestWorkloads runs every workload at tiny sizes, plain and traced: no
// operation fails, every output matches its golden and its traced twin,
// and the metrics printed are exactly the ones BENCHMARK.json names.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && *update {
				continue
			}
			var stdout, log bytes.Buffer
			o := tinyOptions(t, w.name, trace, &log)
			sum, err := runWorkload(w, o, &stdout)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w.name, trace, err, log.String())
			}
			if sum.Failed != 0 || !sum.Correct || sum.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d\n%s", w.name, trace, sum.Attempted, sum.Failed, log.String())
			}
			want := names(endToEnd)
			if trace {
				want = names(perLayerDefs())
			}
			var got []string
			for n := range sum.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t emitted %v, want %v", w.name, trace, got, want)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s trace=%t: last line is not the summary: %v", w.name, trace, err)
			}
			if !trace && sum.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s = %v", w.name, sum.Metrics["wall_s"].Value)
			}
		}
	}
}

// TestWrappersTransparent runs the engine workloads' trials with and
// without the layer wrappers and requires identical Results from sim,
// multihop, and rendezvous.
func TestWrappersTransparent(t *testing.T) {
	var log bytes.Buffer
	o := tinyOptions(t, "engine-dense", false, &log)
	plainDense, err := setupDense(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracedDense, err := setupDense(o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	pd, td := plainDense.(*denseStack), tracedDense.(*denseStack)
	for i := range pd.cases {
		a, errA := pd.trial(0, i, 0, 0)
		b, errB := td.trial(0, i, 1, 0)
		if errA != nil || errB != nil || a != b {
			t.Errorf("dense %s: plain %s (%v), wrapped %s (%v)", pd.cases[i].label(), a, errA, b, errB)
		}
	}
	plainSparse, err := setupSparse(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tracedSparse, err := setupSparse(o, tr)
	if err != nil {
		t.Fatal(err)
	}
	ps, ts := plainSparse.(*sparseStack), tracedSparse.(*sparseStack)
	for i, trial := range ps.trials {
		a, errA := ps.trial(0, i, trial, 0)
		b, errB := ts.trial(0, i, trial, 0)
		if errA != nil || errB != nil || a != b {
			t.Errorf("sparse trial %d (kind %d %s): plain %s (%v), wrapped %s (%v)", i, trial.kind, trial.adv, a, errA, b, errB)
		}
	}
	for _, key := range []string{"adv.calls.reactive", "churn.calls", "jam.calls", "masks.calls"} {
		if tr.sums[key] == 0 {
			t.Errorf("wrapped trials recorded no %s", key)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if v, err := percentile(seq(50), 80); err != nil || v != 40 {
		t.Errorf("p80 of 50 = %v, %v; want 40 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(49), 80); err == nil {
		t.Error("p80 of 49 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 80); err == nil {
		t.Error("p80 of no samples must be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pool", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "trial", Start: 10, End: 60, Calls: []CallStat{{Name: "adv", Calls: 3, NS: 20}}},
		{ID: 3, Parent: 1, Name: "trial", Start: 40, End: 90},
	}
	self := selfTimes(spans)
	// pool: 100 − the union [10, 90); trials: (50 − 20) + 50.
	if got, want := self["pool"]*1e9, 20.0; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("pool self = %v ns, want %v", got, want)
	}
	if got, want := self["trial"]*1e9, 80.0; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("trial self = %v ns, want %v", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the command must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON checks both ways that BENCHMARK.json lists exactly the
// workloads and metrics this command runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, command %v", e2e, endToEnd)
	}
	if got := perLayerDefs(); !reflect.DeepEqual(bf.PerLayer, got) {
		t.Errorf("per_layer: BENCHMARK.json %v, command %v", bf.PerLayer, got)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || len(bf.Command) < 2 || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command %v and paths %v must run bench/run.sh from bench", bf.Command, bf.Paths)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "engine-dense", "-trace", "2"},
		{"-workload", "engine-dense", "-seconds", "0"},
		{"-workload", "engine-dense", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing printed", args, code, stdout.String())
		}
	}
}
