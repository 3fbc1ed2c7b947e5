// Command wsim runs one simulation of a synchronization protocol on the
// disrupted radio network and reports per-node synchronization times,
// medium statistics, and the property-checker verdict.
//
// wsim is a flag layer over the library's one entry point: each flag maps
// onto a field of wsync.Config, wsync.Run does the run, and wsim prints
// its Result. The same inputs therefore give the same run through either
// front end. A zero -seed, -gap or -window takes the library default
// (seed 1, gap 1, window 1000), and -tprime 0 with the fixed adversary
// jams nothing. wsim rejects -n < 1, -N < 2 and -F < 1, which the library
// would silently default.
//
// Exit status: 0 for a run with no property violation, 1 when the checker
// flagged one, 2 for bad input.
//
// Usage examples:
//
//	wsim -protocol trapdoor -n 8 -N 64 -F 8 -t 2 -adversary fixed
//	wsim -protocol samaritan -n 4 -N 16 -F 16 -t 8 -adversary fixed -tprime 1
//	wsim -protocol wakeup -n 8 -activation staggered -gap 50 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wsync"
	"wsync/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wsim", flag.ContinueOnError)
	var (
		protocol   = fs.String("protocol", "trapdoor", "trapdoor | samaritan | wakeup | roundrobin | singlefreq")
		n          = fs.Int("n", 8, "number of activated nodes")
		nBound     = fs.Int("N", 64, "known upper bound on participants")
		f          = fs.Int("F", 8, "number of frequencies")
		t          = fs.Int("t", 2, "adversary disruption budget per round")
		tPrime     = fs.Int("tprime", -1, "actual frequencies jammed (fixed adversary only; -1 = t)")
		advName    = fs.String("adversary", "fixed", "none | fixed | random | sweep | bursty | reactive | stalker")
		activation = fs.String("activation", "simultaneous", "simultaneous | staggered | random")
		gap        = fs.Uint64("gap", 50, "staggered activation gap (rounds; 0 = library default)")
		window     = fs.Uint64("window", 1000, "random activation window (rounds; 0 = library default)")
		seed       = fs.Uint64("seed", 1, "random seed (0 = library default)")
		maxRounds  = fs.Uint64("rounds", 1<<22, "round budget")
		ft         = fs.Bool("ft", false, "fault-tolerant trapdoor variant")
		traceLast  = fs.Int("trace", 0, "print an ASCII timeline of the last N rounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *n < 1:
		return fail(fmt.Errorf("-n %d: need at least 1 node", *n))
	case *nBound < 2:
		return fail(fmt.Errorf("-N %d: need N >= 2", *nBound))
	case *f < 1:
		return fail(fmt.Errorf("-F %d: need at least 1 frequency", *f))
	}

	cfg := wsync.Config{
		Protocol:         wsync.Protocol(*protocol),
		Nodes:            *n,
		N:                *nBound,
		F:                *f,
		T:                *t,
		Adversary:        *advName,
		Activation:       *activation,
		ActivationGap:    *gap,
		ActivationWindow: *window,
		Seed:             *seed,
		MaxRounds:        *maxRounds,
		FaultTolerant:    *ft,
	}
	switch {
	case *tPrime == 0 && *advName == "fixed":
		cfg.Adversary = "none" // JammedPrefix 0 means T
	case *tPrime > 0:
		cfg.JammedPrefix = *tPrime
	}
	var recorder *trace.Recorder
	if *traceLast > 0 {
		recorder = trace.NewRecorder(*traceLast)
		cfg.Observers = []wsync.Observer{recorder}
	}

	res, err := wsync.Run(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "protocol=%s n=%d N=%d F=%d t=%d adversary=%s seed=%d\n",
		*protocol, *n, *nBound, *f, *t, *advName, *seed)
	report(stdout, res)
	if recorder != nil {
		if err := recorder.Render(stdout, *n); err != nil {
			fmt.Fprintf(os.Stderr, "wsim: trace: %v\n", err)
		}
	}
	if !res.PropertiesOK {
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		return 1
	}
	return 0
}

// fail reports bad input and returns its exit status.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "wsim: %v\n", err)
	return 2
}

// report prints a run's rounds, medium statistics, per-node table and the
// property checker's verdict.
func report(w io.Writer, res *wsync.Result) {
	fmt.Fprintf(w, "rounds executed: %d (hit budget: %v)\n", res.Rounds, res.HitMaxRounds)
	fmt.Fprintf(w, "all synced: %v, leaders: %d, max local sync time: %d rounds\n",
		res.AllSynced, res.Leaders, res.MaxSyncLocal)
	fmt.Fprintf(w, "medium: %d transmissions, %d deliveries, %d collisions, %d jammed losses, %d clear broadcasts\n",
		res.Transmissions, res.Deliveries, res.Collisions, res.JammedLosses, res.ClearBroadcasts)
	fmt.Fprintln(w, "per-node: id activated syncedAt localTime")
	for i, at := range res.SyncRound {
		local := "-"
		syncAt := "-"
		if at != 0 {
			syncAt = fmt.Sprintf("%d", at)
			local = fmt.Sprintf("%d", at-res.Activated[i]+1)
		}
		fmt.Fprintf(w, "  %2d  %6d  %8s  %8s\n", i, res.Activated[i], syncAt, local)
	}
	fmt.Fprintln(w, res.Summary)
}
