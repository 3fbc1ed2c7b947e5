package main

import (
	"fmt"
	"math"
	"sort"

	"wsync/internal/harness"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"node_rounds_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetric is a per-layer metric and how a traced run's tallies give
// its value. A layer the workload does not exercise reads 0.
type layerMetric struct {
	metricDef
	value func(t *tracer) float64
}

func med(key string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return median(t.samples[key]) }
}

func total(key string) func(t *tracer) float64 {
	return func(t *tracer) float64 { return t.sums[key] }
}

func ratio(num, den string) func(t *tracer) float64 {
	return func(t *tracer) float64 {
		if t.sums[den] == 0 {
			return 0
		}
		return t.sums[num] / t.sums[den]
	}
}

// perLayer lists the metrics a traced run reports, on every workload.
func perLayer() []layerMetric {
	var ms []layerMetric
	add := func(name, unit, better string, v func(*tracer) float64) {
		ms = append(ms, layerMetric{metricDef{name, unit, better}, v})
	}
	for _, id := range harness.IDs() {
		add("harness.exp_s."+id, "s", "lower", med("exp."+id))
	}
	add("sim.node_rounds", "count", "lower", total("nr.sim"))
	add("multihop.node_rounds", "count", "lower", total("nr.multihop"))
	add("rendezvous.node_rounds", "count", "lower", total("nr.rendezvous"))
	for _, c := range fullSizes().dense.cases() {
		add("sim.ns_per_node_round."+c.label(), "ns/node_round", "lower", ratio("sim.ns."+c.label(), "sim.nr."+c.label()))
	}
	add("sim.ns_per_round.gallery", "ns/round", "lower", ratio("gallery.ns", "gallery.rounds"))
	for _, a := range []string{"random", "reactive", "stalker", "sweep", "bursty"} {
		add("adversary.ns_per_call."+a, "ns/call", "lower", ratio("adv.ns."+a, "adv.calls."+a))
	}
	add("adversary.share", "frac", "lower", ratio("adv.ns", "adv.run_ns"))
	add("multihop.ns_per_node_round", "ns/node_round", "lower", ratio("multihop.ns", "multihop.nr"))
	add("multihop.topology_build_s", "s", "lower", med("multihop.topology_build_s"))
	add("churn.ns_per_call", "ns/call", "lower", ratio("churn.ns", "churn.calls"))
	add("churn.edges_per_round", "edges/round", "lower", ratio("churn.edges", "churn.calls"))
	add("churn.share", "frac", "lower", ratio("churn.ns", "multihop.ns"))
	add("rendezvous.ns_per_round", "ns/round", "lower", ratio("rdv.ns", "rdv.rounds"))
	add("rendezvous.jammer_ns_per_call", "ns/call", "lower", ratio("jam.ns", "jam.calls"))
	add("rendezvous.masks_ns_per_call", "ns/call", "lower", ratio("masks.ns", "masks.calls"))
	add("rendezvous.jammer_share", "frac", "lower", ratio("jam.ns", "rdv.ns"))
	add("agents.arena_build_s", "s", "lower", med("agents.arena_build_s"))
	add("agents.new_agent_ns", "ns/call", "lower", ratio("agent.ns", "agent.calls"))
	add("pool.busy_frac", "frac", "higher", ratio("pool.busy_ns", "pool.capacity_ns"))
	add("pool.tail_s", "s", "lower", med("pool.tail_s"))
	add("shard.encode_s", "s", "lower", med("shard.encode_s"))
	add("shard.report_bytes", "bytes", "lower", med("shard.report_bytes"))
	for _, call := range []string{"submit", "poll", "push", "push_final", "status", "healthz", "queue_wait"} {
		add("svc."+call+"_s_p50", "s", "lower", med("svc."+call+"_s"))
	}
	add("svc.cached_job_s_p50", "s", "lower", med("svc.cached_job_s"))
	add("svc.polls", "count/job", "lower", ratio("svc.polls", "svc.jobs"))
	add("svc.polls_empty", "count/job", "lower", ratio("svc.polls_empty", "svc.jobs"))
	add("svc.lease_frac", "frac", "higher", ratio("svc.leases", "svc.polls"))
	add("svc.cache_hits", "count/job", "higher", ratio("svc.cache_hits", "svc.jobs"))
	add("svc.cache_misses", "count/job", "lower", ratio("svc.cache_misses", "svc.jobs"))
	add("svc.report_bytes", "bytes", "lower", med("svc.report_bytes"))
	add("worker.compute_frac", "frac", "higher", ratio("worker.compute_s", "svc.job_s"))
	add("go.gc_cycles", "count/unit", "lower", total("go.gc_cycles"))
	add("go.gc_pause_s", "s/unit", "lower", total("go.gc_pause_s"))
	add("go.alloc_mb", "MB/unit", "lower", total("go.alloc_mb"))
	add("trace.overhead_frac", "frac", "lower", total("trace.overhead_frac"))
	return ms
}

// median returns the middle of xs, the mean of the two middle values for
// an even count, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; fewer make it an estimate of one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, or an error
// when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
