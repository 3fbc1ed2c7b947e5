// Package obs is the dependency-free observability layer: a metrics
// registry (counters, gauges, labelled gauge families and histograms)
// with Prometheus text exposition, built for the wsyncd service stack.
//
// Design constraints, in order:
//
//   - No dependencies. The repository's rule is that nothing gets
//     installed; the exposition format is simple enough to emit by hand
//     and the Prometheus text format (version 0.0.4) is a stable,
//     universally scraped target.
//   - Cheap on the writer side. Counters and gauges are single atomics;
//     histograms are an atomic per bucket plus a CAS loop for the sum.
//     None of them lock on the hot path, so instrumented code (the
//     wsyncd server handlers, the worker loop) never serializes on the
//     registry mutex — that mutex guards only registration and
//     exposition.
//   - Deterministic exposition. Families render in registration order
//     and labelled children in sorted label order, so scraping the same
//     state twice yields byte-identical documents — the property the
//     golden test in obs_test.go pins, and what makes /metrics output
//     diffable in CI logs.
//
// The engine hot paths are deliberately NOT instrumented through this
// package: the harness counts node-rounds once per engine run, from the
// run's result, into a meter of the experiment's own
// (harness.Experiment.RunMetered), and the service layer adds each
// entry's count to its counters. The zero-allocation round-loop contract
// (TestSteadyStateAllocs, TestActivationRoundAllocs) is therefore
// untouched by observability.
//
// Typical use:
//
//	reg := obs.NewRegistry()
//	jobs := reg.Counter("wsync_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.")
//	lat := reg.Histogram("wsync_push_latency_seconds", "Push handler latency.", obs.DefTimeBuckets)
//	inflight := reg.GaugeVec("wsync_worker_inflight", "Leased experiments per worker.", "worker")
//
//	jobs.Inc()
//	lat.Observe(0.0042)
//	inflight.With("w1").Set(3)
//
//	mux.Handle("GET /metrics", reg.Handler())
//
// docs/OBSERVABILITY.md catalogues every metric the service stack
// registers.
package obs
