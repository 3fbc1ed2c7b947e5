// Command wsyncd is the always-on sweep service: an HTTP/JSON job
// server (internal/svc) that accepts benchmark sweeps, carves them
// across registered workers with the shard planner, retries and
// re-plans work lost to dead workers, and serves repeated sweeps from a
// content-addressed result cache.
//
// Server mode:
//
//	wsyncd -listen 127.0.0.1:8080
//	wsyncd -listen :8080 -heartbeat 30s -retry-base 2s -max-attempts 5
//	wsyncd -listen :8080 -debug-addr 127.0.0.1:6060   # pprof + /metrics
//
// Worker mode (run one per machine or core pool; each polls the server
// for assignments and pushes wsync-bench/v1 entries back):
//
//	wsyncd -worker http://127.0.0.1:8080 -name w1 -parallel 2
//
// Both modes log structured records (log/slog text format) to stderr
// and, with -debug-addr, serve net/http/pprof plus a Prometheus
// /metrics endpoint on a separate listener. The server mode also
// mounts /metrics and GET /v1/jobs/{id}/events (long-poll job-state
// transitions) on the job API itself; see docs/OBSERVABILITY.md.
//
// Submit sweeps and collect merged reports with `wexp -submit`; the
// wire protocol and cache key are documented in docs/BENCH_FORMAT.md
// ("The wsyncd job service").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsync/internal/obs"
	"wsync/internal/svc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// debugServer serves pprof and /metrics on addr, off the job-API mux so
// profiling traffic cannot contend with (or accidentally expose) the
// control plane. Returns a shutdown func.
func debugServer(addr string, reg *obs.Registry, log *slog.Logger) (shutdown func(context.Context), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", reg.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	log.Info("debug listener up", "addr", ln.Addr().String(), "endpoints", "/debug/pprof/ /metrics")
	return func(ctx context.Context) { hs.Shutdown(ctx) }, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsyncd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "", "serve the job API on this address (server mode)")
		worker      = fs.String("worker", "", "poll this wsyncd base URL for work (worker mode)")
		name        = fs.String("name", "", "worker name (default host:pid)")
		parallel    = fs.Int("parallel", 0, "worker mode: experiments run side by side per assignment, and trial-runner goroutines per experiment (0 = one per CPU)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "worker mode: base idle poll interval (backs off exponentially with jitter while idle)")
		heartbeat   = fs.Duration("heartbeat", 15*time.Second, "server mode: deadline for a worker to check in before its work is re-planned")
		retryBase   = fs.Duration("retry-base", time.Second, "server mode: backoff unit for re-planned experiments (doubles per attempt)")
		maxAttempts = fs.Int("max-attempts", 3, "server mode: assignment attempts per experiment before the job fails")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this separate address (both modes)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *listen == "" && *worker == "":
		fmt.Fprintln(stderr, "wsyncd: one of -listen (server) or -worker (worker) is required")
		return 2
	case *listen != "" && *worker != "":
		fmt.Fprintln(stderr, "wsyncd: -listen and -worker are mutually exclusive")
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "wsyncd: bad -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	log := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		shutdown, err := debugServer(*debugAddr, reg, log)
		if err != nil {
			log.Error("debug listener failed", "error", err)
			return 1
		}
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			shutdown(dctx)
		}()
	}

	if *worker != "" {
		wname := *name
		if wname == "" {
			host, _ := os.Hostname()
			wname = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		log.Info("worker polling", "worker", wname, "server", *worker)
		if err := svc.RunWorker(ctx, svc.WorkerOptions{
			Server:       *worker,
			Name:         wname,
			PollInterval: *poll,
			Parallelism:  *parallel,
			Log:          log,
			Metrics:      reg,
		}); err != nil {
			log.Error("worker failed", "worker", wname, "error", err)
			return 1
		}
		log.Info("worker stopped", "worker", wname)
		return 0
	}

	server := svc.NewServer(svc.Options{
		HeartbeatTimeout: *heartbeat,
		RetryBase:        *retryBase,
		MaxAttempts:      *maxAttempts,
		Log:              log,
		Metrics:          reg,
	})
	defer server.Close()

	// Bind before announcing readiness so a script can start submitting
	// the moment the log line appears (and :0 reports its real port).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "addr", *listen, "error", err)
		return 1
	}
	hs := &http.Server{Handler: server.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	log.Info("listening", "addr", ln.Addr().String())

	select {
	case err := <-served:
		log.Error("serve failed", "error", err)
		return 1
	case <-ctx.Done():
	}
	// Flip healthz to 503 and answer blocked long-poll rounds first, so
	// load balancers stop routing here and Shutdown is not held up to a
	// round's wait; in-flight polls and pushes still complete.
	server.BeginDrain()
	log.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Error("shutdown failed", "error", err)
		return 1
	}
	return 0
}
