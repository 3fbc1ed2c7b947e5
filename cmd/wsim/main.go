// Command wsim runs one simulation of a synchronization protocol on the
// disrupted radio network and reports per-node synchronization times,
// medium statistics, and the property-checker verdict.
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

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/props"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trace"
	"wsync/internal/trapdoor"
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
		gap        = fs.Uint64("gap", 50, "staggered activation gap (rounds)")
		window     = fs.Uint64("window", 1000, "random activation window (rounds)")
		seed       = fs.Uint64("seed", 1, "random seed")
		maxRounds  = fs.Uint64("rounds", 1<<22, "round budget")
		ft         = fs.Bool("ft", false, "fault-tolerant trapdoor variant")
		traceLast  = fs.Int("trace", 0, "print an ASCII timeline of the last N rounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	newAgent, err := agentFactory(*protocol, *nBound, *f, *t, *ft)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsim: %v\n", err)
		return 2
	}

	var sched sim.Schedule
	switch *activation {
	case "simultaneous":
		sched = sim.Simultaneous{Count: *n}
	case "staggered":
		sched = sim.Staggered{Count: *n, Gap: *gap}
	case "random":
		sched = sim.RandomWindow(*n, *window, *seed+999)
	default:
		fmt.Fprintf(os.Stderr, "wsim: unknown activation %q\n", *activation)
		return 2
	}

	var adv sim.Adversary
	if *advName == "fixed" && *tPrime >= 0 {
		adv = adversary.NewLowPrefix(*f, *tPrime)
	} else {
		adv, err = adversary.New(*advName, *f, *t, *seed+4242)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsim: %v\n", err)
			return 2
		}
	}

	check := props.NewChecker(*n)
	cfg := &sim.Config{
		F:         *f,
		T:         *t,
		Seed:      *seed,
		NewAgent:  newAgent,
		Schedule:  sched,
		Adversary: adv,
		MaxRounds: *maxRounds,
		Observers: []sim.Observer{check},
	}
	var recorder *trace.Recorder
	if *traceLast > 0 {
		recorder = trace.NewRecorder(*traceLast)
		cfg.Observers = append(cfg.Observers, recorder)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "protocol=%s n=%d N=%d F=%d t=%d adversary=%s seed=%d\n",
		*protocol, *n, *nBound, *f, *t, *advName, *seed)
	fmt.Fprintf(stdout, "rounds executed: %d (hit budget: %v)\n", res.Stats.Rounds, res.HitMaxRounds)
	fmt.Fprintf(stdout, "all synced: %v, leaders: %d, max local sync time: %d rounds\n",
		res.AllSynced, res.Leaders, res.MaxSyncLocal)
	fmt.Fprintf(stdout, "medium: %d transmissions, %d deliveries, %d collisions, %d jammed losses, %d clear broadcasts\n",
		res.Stats.Transmissions, res.Stats.Deliveries, res.Stats.Collisions,
		res.Stats.DisruptedLosses, res.Stats.ClearBroadcasts)
	fmt.Fprintln(stdout, "per-node: id activated syncedAt localTime")
	for i := range res.SyncRound {
		local := "-"
		syncAt := "-"
		if res.SyncRound[i] != 0 {
			syncAt = fmt.Sprintf("%d", res.SyncRound[i])
			local = fmt.Sprintf("%d", res.SyncLocal(i))
		}
		fmt.Fprintf(stdout, "  %2d  %6d  %8s  %8s\n", i, res.Activated[i], syncAt, local)
	}
	fmt.Fprintln(stdout, check.Summary())
	if recorder != nil {
		if err := recorder.Render(stdout, *n); err != nil {
			fmt.Fprintf(os.Stderr, "wsim: trace: %v\n", err)
		}
	}
	if !check.OK() {
		for _, v := range check.Violations() {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		return 1
	}
	return 0
}

// agentFactory builds the protocol constructor for the engine.
func agentFactory(protocol string, nBound, f, t int, ft bool) (func(sim.NodeID, uint64, *rng.Rand) sim.Agent, error) {
	switch protocol {
	case "trapdoor":
		p := trapdoor.Params{N: nBound, F: f, T: t, FaultTolerant: ft}
		if ft {
			p.CommitThreshold = 2
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		}, nil
	case "samaritan":
		p := samaritan.Params{N: nBound, F: f, T: t}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return samaritan.MustNew(p, r)
		}, nil
	case "wakeup":
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return baseline.NewWakeup(nBound, f, r)
		}, nil
	case "roundrobin":
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return baseline.NewRoundRobin(nBound, f, r)
		}, nil
	case "singlefreq":
		return func(id sim.NodeID, activation uint64, r *rng.Rand) sim.Agent {
			return baseline.NewSingleFreq(nBound, r)
		}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}
