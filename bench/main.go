// Command bench is the wsync benchmark. It runs one workload for a fixed
// measuring window, checks every output against committed goldens and
// in-run invariants, and prints each metric as a line
//
//	<workload> <metric> <value> <unit>
//
// followed by one JSON summary line. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) prints the per-layer
// metrics and writes the spans it recorded. README.md in this directory
// describes the workloads, the metrics, and how to read a trace.
//
// Usage:
//
//	go -C bench run . -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh --workload <name> --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/sim"
)

// gomaxprocs is the processor count every workload runs with, so runs on
// machines of different sizes load the program the same way.
const gomaxprocs = 2

// setupRepeats is how often a run builds its workload's stack; setup_s is
// the median, and the last stack built is the one measured.
const setupRepeats = 3

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans
	golden   string // when set, the golden file this run rewrites
	sz       sizes
	log      io.Writer
}

func (o *options) logf(format string, args ...any) {
	fmt.Fprintf(o.log, "bench: "+format+"\n", args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the measuring window in seconds")
	trace := fs.Int("trace", 0, "1 runs with the layer wrappers on and reports per-layer metrics")
	spans := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	golden := fs.String("update-golden", "", "merge this run's outputs into the given golden file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	if *name == "all" {
		return runAll(fs, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := &options{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		spans:    *spans,
		golden:   *golden,
		sz:       fullSizes(),
		log:      stderr,
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	}
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		o.logf("%s: %v", w.name, err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so each workload gets
// a fresh process: its own heap, its own peak RSS, and GOMAXPROCS=2.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name}
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" && f.Name != "spans" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets the workload up, runs its measuring window (two
// windows when traced: plain, then traced over the same units), checks
// the outputs, and prints the metrics and the summary line.
func runWorkload(w workload, o *options, stdout io.Writer) (*summary, error) {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# %s\n", fingerprint(o))

	chk, err := newChecker(o)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, 0, setupRepeats)
	var st stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		st, err = w.setup(o, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	minUnits, maxUnits := st.bounds()
	window := o.seconds
	if o.trace {
		window /= 2
		minUnits = (minUnits + 1) / 2
	}
	plain, err := runPhase(st, nil, window, minUnits, maxUnits, -1, chk)
	st.close()
	if err != nil {
		return nil, err
	}
	sum := &summary{Metrics: map[string]metricValue{}, Attempted: plain.ops, Failed: plain.failed}
	var tr *tracer
	var traced *phase
	if o.trace {
		tr = newTracer()
		tst, err := w.setup(o, tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		traced, err = runPhase(tst, tr, 0, 0, 0, plain.units, chk)
		tst.close()
		if err != nil {
			return nil, err
		}
		sum.Attempted += traced.ops
		sum.Failed += traced.failed
	}
	if err := chk.finish(); err != nil {
		return nil, err
	}
	sum.Failed += chk.mismatches
	sum.Correct = sum.Failed == 0

	emit := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		sum.Metrics[name] = metricValue{Value: v, Unit: unit}
		fmt.Fprintf(out, "%s %s %s %s\n", w.name, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	if !o.trace {
		vals := map[string]float64{
			"setup_s":           median(setups),
			"wall_s":            median(plain.walls),
			"node_rounds_per_s": float64(plain.nrTotal()) / plain.window,
			"peak_rss_mb":       peakRSSMB(),
		}
		for _, m := range endToEnd {
			emit(m.Name, m.Unit, vals[m.Name])
		}
		printExtras(out, w.name, plain, sum)
	} else {
		tr.add("nr.sim", float64(plain.nrUnit0[0]))
		tr.add("nr.multihop", float64(plain.nrUnit0[1]))
		tr.add("nr.rendezvous", float64(plain.nrUnit0[2]))
		units := float64(plain.units)
		tr.add("go.gc_cycles", float64(plain.gcCycles)/units)
		tr.add("go.gc_pause_s", plain.gcPause/units)
		tr.add("go.alloc_mb", plain.allocMB/units)
		tr.add("trace.overhead_frac", median(traced.walls)/median(plain.walls)-1)
		for _, m := range perLayer() {
			emit(m.Name, m.Unit, m.value(tr))
		}
		printSelfTimes(out, w.name, tr.spans)
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# %s spans %d written to %s\n", w.name, len(tr.spans), o.spans)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return sum, nil
}

// printExtras prints, as comment lines, what an untraced run measured
// beyond the end-to-end metrics: sample counts, the failure share, the
// served-job latency percentiles, and Go runtime activity.
func printExtras(out io.Writer, name string, p *phase, sum *summary) {
	extra := func(metric string, v float64, unit string) {
		fmt.Fprintf(out, "# %s %s %s %s\n", name, metric, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	extra("units", float64(p.units), "count")
	walls := make([]string, len(p.walls))
	for i, v := range p.walls {
		walls[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	fmt.Fprintf(out, "# %s unit_walls_s %s\n", name, strings.Join(walls, " "))
	extra("ops", float64(p.ops), "count")
	extra("failed_frac", float64(sum.Failed)/float64(max(sum.Attempted, 1)), "frac")
	keys := make([]string, 0, len(p.samples))
	for k := range p.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := p.samples[k]
		extra(k+"_p50", median(xs), "s")
		if v, err := percentile(xs, 80); err == nil {
			extra(k+"_p80", v, "s")
		} else {
			fmt.Fprintf(out, "# %s %s_p80 not reported: %v\n", name, k, err)
		}
		extra(k+"_samples", float64(len(xs)), "count")
	}
	units := float64(p.units)
	extra("go.gc_cycles", float64(p.gcCycles)/units, "count/unit")
	extra("go.gc_pause_s", p.gcPause/units, "s/unit")
	extra("go.alloc_mb", p.allocMB/units, "MB/unit")
}

// printSelfTimes prints each span name's total self time: its spans'
// durations minus the parts their child spans and wrapped calls cover.
func printSelfTimes(out io.Writer, name string, spans []Span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(out, "# %s self_s %s %s\n", name, n, strconv.FormatFloat(self[n], 'g', 6, 64))
	}
}

// fingerprint describes the environment a run measured, so numbers from
// different machines are never compared unknowingly.
func fingerprint(o *options) string {
	return fmt.Sprintf("wsync-bench workload=%s seed=%d seconds=%g trace=%t go=%s os=%s arch=%s cpu=%q gomaxprocs=%d nproc=%d",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or the
// Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// nodeRounds samples the three engines' process-wide node-round counters.
func nodeRounds() [3]uint64 {
	return [3]uint64{sim.TotalNodeRounds(), multihop.TotalNodeRounds(), rendezvous.TotalNodeRounds()}
}
