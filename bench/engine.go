package main

import (
	"fmt"

	"wsync/internal/adversary"
	"wsync/internal/baseline"
	"wsync/internal/churn"
	"wsync/internal/multihop"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/samaritan"
	"wsync/internal/sim"
	"wsync/internal/trapdoor"
)

// ---- engine-dense ----

type denseShape struct {
	n      int
	rounds uint64
}

type denseSize struct {
	f, t       int
	shapes     []denseShape
	reps       int    // trials per (protocol, shape) per unit
	warmRounds uint64 // horizon of the set-up warm-up trials
	minUnits   int
}

var denseProtocols = []string{"trapdoor", "samaritan", "roundrobin"}

type denseCase struct {
	proto string
	denseShape
}

func (c denseCase) label() string { return fmt.Sprintf("%s.n%d", c.proto, c.n) }

// cases lists every (protocol, shape) pair, protocol-major: the small
// and large shapes alternate, so pool.Run's two halves of a unit carry
// nearly equal work.
func (sz denseSize) cases() []denseCase {
	var cs []denseCase
	for _, p := range denseProtocols {
		for _, sh := range sz.shapes {
			cs = append(cs, denseCase{p, sh})
		}
	}
	return cs
}

// newArena builds an arena for one case and returns its NewAgent.
func newArena(proto string, n, f, t int) agentFactory {
	switch proto {
	case "trapdoor":
		return trapdoor.MustNewArena(trapdoor.Params{N: n, F: f, T: t}, n).NewAgent
	case "samaritan":
		return samaritan.MustNewArena(samaritan.Params{N: n, F: f, T: t}, n).NewAgent
	default:
		return baseline.NewRoundRobinArena(n, f, n).NewAgent
	}
}

// denseStack runs X10-shaped sim.Run trials through pool.Run: every node
// awake from round 1, a random jammer, a fixed horizon. Arenas are built
// once in set-up, one per pool worker and case; an arena serves one
// engine run at a time, and each worker runs its trials one by one.
type denseStack struct {
	o      *options
	sz     denseSize
	tr     *tracer
	cases  []denseCase
	arenas [poolWorkers][]agentFactory
}

func setupDense(o *options, tr *tracer) (stack, error) {
	sz := o.sz.dense
	s := &denseStack{o: o, sz: sz, tr: tr, cases: sz.cases()}
	sp := tr.open("agents.arena_build", 0)
	for w := range s.arenas {
		for _, c := range s.cases {
			s.arenas[w] = append(s.arenas[w], newArena(c.proto, c.n, sz.f, sz.t))
		}
	}
	tr.sample("agents.arena_build_s", float64(sp.close())/1e9)
	// Warm-up: one short trial per case and worker arena.
	for w := range s.arenas {
		for i, c := range s.cases {
			seed, adv := trialSeeds(o.seed, tagWarm, w, i)
			_, err := sim.Run(&sim.Config{
				F: sz.f, T: sz.t, Seed: seed,
				NewAgent:       s.arenas[w][i],
				Schedule:       sim.Simultaneous{Count: c.n},
				Adversary:      adversary.NewRandom(sz.f, sz.t, adv),
				MaxRounds:      sz.warmRounds,
				RunToMaxRounds: true,
			})
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.label(), err)
			}
		}
	}
	return s, nil
}

func (s *denseStack) bounds() (int, int) { return s.sz.minUnits, 0 }

func (s *denseStack) close() {}

func (s *denseStack) unit(u int, parent int64) (unitOut, error) {
	n := len(s.cases) * s.sz.reps
	fps := make([]string, n)
	errs := make([]error, n)
	runPool(s.tr, parent, poolWorkers, n, func(w, i int, parent int64) {
		fps[i], errs[i] = s.trial(u, i, w, parent)
	})
	out := unitOut{key: fmt.Sprintf("seed=%d/unit=%d", s.o.seed, u), ops: n}
	for i, err := range errs {
		if err != nil {
			out.failed++
			s.o.logf("engine-dense: unit %d trial %d: %v", u, i, err)
		}
	}
	out.digest = digest(fps)
	return out, nil
}

// trial runs trial i of unit u on pool worker w and returns the digest of
// its Result.
func (s *denseStack) trial(u, i, w int, parent int64) (string, error) {
	ci := i % len(s.cases)
	c := s.cases[ci]
	seed, advSeed := trialSeeds(s.o.seed, tagDense, u, i)
	cfg := &sim.Config{
		F: s.sz.f, T: s.sz.t, Seed: seed,
		NewAgent:       s.arenas[w][ci],
		Schedule:       sim.Simultaneous{Count: c.n},
		Adversary:      adversary.NewRandom(s.sz.f, s.sz.t, advSeed),
		MaxRounds:      c.rounds,
		RunToMaxRounds: true,
	}
	var adv *timedAdversary
	var agents clock
	if s.tr != nil {
		adv = &timedAdversary{inner: cfg.Adversary}
		cfg.Adversary = adv
		cfg.NewAgent = timedAgents(cfg.NewAgent, &agents)
	}
	sp := s.tr.open("sim.Run", parent)
	res, err := sim.Run(cfg)
	if s.tr != nil {
		ns := float64(sp.close(adv.stat("adversary.Disrupt"), agents.stat("NewAgent")))
		s.tr.add("sim.ns."+c.label(), ns)
		if res != nil {
			s.tr.add("sim.nr."+c.label(), float64(res.Stats.NodeRounds))
		}
		recordAdversary(s.tr, "random", adv, ns)
		s.tr.add("agent.ns", float64(agents.ns))
		s.tr.add("agent.calls", float64(agents.calls))
	}
	if err != nil {
		return "", err
	}
	if want := uint64(c.n) * c.rounds; res.Stats.NodeRounds != want {
		return "", fmt.Errorf("%s: fixed-horizon trial ran %d node-rounds, want %d", c.label(), res.Stats.NodeRounds, want)
	}
	return digest(res), nil
}

func recordAdversary(tr *tracer, name string, adv *timedAdversary, runNS float64) {
	tr.add("adv.ns."+name, float64(adv.ns))
	tr.add("adv.calls."+name, float64(adv.calls))
	tr.add("adv.ns", float64(adv.ns))
	tr.add("adv.run_ns", runNS)
}

// ---- engine-sparse ----

type relaySize struct {
	n                  int
	radius, speed      float64
	movers             int
	f, t, bound        int
	rounds, warmRounds uint64
}

type gallerySize struct {
	adversaries                []string
	f, t, bound, active        int
	gap, maxRounds, warmRounds uint64
}

type rdvSize struct {
	parties, f, t  int
	rate           float64
	maxRounds      uint64
	perGroup, warm int
}

type sparseSize struct {
	// A unit is groups copies of: one relay trial, one gallery trial per
	// adversary, and rdv.perGroup rendezvous trials.
	groups   int
	relay    relaySize
	gallery  gallerySize
	rdv      rdvSize
	minUnits int
}

type sparseKind int

const (
	kindRelay sparseKind = iota
	kindGallery
	kindRendezvous
)

type sparseTrial struct {
	kind sparseKind
	adv  string // gallery adversary
}

// sparseStack runs the per-round-overhead regime through pool.Run:
// (a) multihop relay on a 1024-node random-waypoint graph for a fixed
// horizon (X9's scale row), (b) sim trapdoor with 8 staggered nodes on
// F=128, t=48 against the adaptive and scheduled jammers until sync (X8's
// full gallery), (c) 16-party rendezvous on F=64 with churning masks and
// the greedy product jammer (R2/R3). Each group lists its heavy trials
// first and the pool's halves hold equal groups, so the two workers start
// balanced.
type sparseStack struct {
	o      *options
	sz     sparseSize
	tr     *tracer
	trials []sparseTrial
	warm   bool // a set-up warm-up: capped horizons, no completion checks
}

// group lists one relay trial, one gallery trial per adversary, and rdv
// rendezvous games, heavy trials first.
func (sz sparseSize) group(rdv int) []sparseTrial {
	g := []sparseTrial{{kind: kindRelay}}
	for _, a := range sz.gallery.adversaries {
		g = append(g, sparseTrial{kind: kindGallery, adv: a})
	}
	for k := 0; k < rdv; k++ {
		g = append(g, sparseTrial{kind: kindRendezvous})
	}
	return g
}

func setupSparse(o *options, tr *tracer) (stack, error) {
	sz := o.sz.sparse
	s := &sparseStack{o: o, sz: sz, tr: tr}
	for g := 0; g < sz.groups; g++ {
		s.trials = append(s.trials, sz.group(sz.rdv.perGroup)...)
	}
	// Warm-up: short runs of every kind. Unit -1 is never measured, so
	// the warm-up inputs are apart from every unit's.
	warm := &sparseStack{o: o, sz: sz, warm: true}
	warm.sz.relay.rounds = sz.relay.warmRounds
	warm.sz.gallery.maxRounds = sz.gallery.warmRounds
	for i, t := range sz.group(sz.rdv.warm) {
		if _, err := warm.trial(-1, i, t, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *sparseStack) bounds() (int, int) { return s.sz.minUnits, 0 }

func (s *sparseStack) close() {}

func (s *sparseStack) unit(u int, parent int64) (unitOut, error) {
	n := len(s.trials)
	fps := make([]string, n)
	errs := make([]error, n)
	runPool(s.tr, parent, poolWorkers, n, func(_, i int, parent int64) {
		fps[i], errs[i] = s.trial(u, i, s.trials[i], parent)
	})
	out := unitOut{key: fmt.Sprintf("seed=%d/unit=%d", s.o.seed, u), ops: n}
	for i, err := range errs {
		if err != nil {
			out.failed++
			s.o.logf("engine-sparse: unit %d trial %d: %v", u, i, err)
		}
	}
	out.digest = digest(fps)
	return out, nil
}

// trial runs trial i of unit u and returns the digest of its Result.
func (s *sparseStack) trial(u, i int, t sparseTrial, parent int64) (string, error) {
	seed, aux := trialSeeds(s.o.seed, tagSparse, u, i)
	switch t.kind {
	case kindRelay:
		return s.relay(seed, aux, parent)
	case kindGallery:
		return s.gallery(t.adv, seed, aux, parent)
	default:
		return s.rendezvous(seed, aux, parent)
	}
}

func (s *sparseStack) relay(seed, aux uint64, parent int64) (string, error) {
	sz := s.sz.relay
	build := s.tr.open("churn.NewWaypoint", parent)
	model := churn.NewWaypoint(sz.n, sz.radius, sz.speed, sz.movers, aux)
	s.tr.sample("multihop.topology_build_s", float64(build.close())/1e9)
	p := trapdoor.Params{N: sz.bound, F: sz.f, T: sz.t}
	cfg := &multihop.Config{
		F: sz.f, T: sz.t, Seed: seed,
		Topology: model.Topology(),
		Churn:    model,
		NewAgent: func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
			return multihop.MustNewRelay(p, r)
		},
		Adversary: adversary.NewRandom(sz.f, sz.t, aux^seed),
		MaxRounds: sz.rounds,
		RunToMax:  true,
	}
	var adv *timedAdversary
	var ch *timedChurn
	if s.tr != nil {
		adv = &timedAdversary{inner: cfg.Adversary}
		ch = &timedChurn{inner: model}
		cfg.Adversary, cfg.Churn = adv, ch
	}
	sp := s.tr.open("multihop.Run", parent)
	res, err := multihop.Run(cfg)
	if s.tr != nil {
		ns := float64(sp.close(adv.stat("adversary.Disrupt"), ch.stat("churn.Deltas")))
		s.tr.add("multihop.ns", ns)
		if res != nil {
			s.tr.add("multihop.nr", float64(res.NodeRounds))
		}
		recordAdversary(s.tr, "random", adv, ns)
		s.tr.add("churn.ns", float64(ch.ns))
		s.tr.add("churn.calls", float64(ch.calls))
		s.tr.add("churn.edges", float64(ch.edges))
	}
	if err != nil {
		return "", err
	}
	if want := uint64(sz.n) * sz.rounds; res.NodeRounds != want {
		return "", fmt.Errorf("relay: fixed-horizon trial ran %d node-rounds, want %d", res.NodeRounds, want)
	}
	return digest(res), nil
}

func (s *sparseStack) gallery(name string, seed, aux uint64, parent int64) (string, error) {
	sz := s.sz.gallery
	a, err := adversary.New(name, sz.f, sz.t, aux)
	if err != nil {
		return "", err
	}
	p := trapdoor.Params{N: sz.bound, F: sz.f, T: sz.t}
	cfg := &sim.Config{
		F: sz.f, T: sz.t, Seed: seed,
		NewAgent: func(_ sim.NodeID, _ uint64, r *rng.Rand) sim.Agent {
			return trapdoor.MustNew(p, r)
		},
		Schedule:  sim.Staggered{Count: sz.active, Gap: sz.gap},
		Adversary: a,
		MaxRounds: sz.maxRounds,
	}
	var adv *timedAdversary
	if s.tr != nil {
		adv = &timedAdversary{inner: a}
		cfg.Adversary = adv
	}
	sp := s.tr.open("sim.Run", parent)
	res, err := sim.Run(cfg)
	if s.tr != nil {
		ns := float64(sp.close(adv.stat("adversary.Disrupt")))
		s.tr.add("gallery.ns", ns)
		if res != nil {
			s.tr.add("gallery.rounds", float64(res.Stats.Rounds))
		}
		recordAdversary(s.tr, name, adv, ns)
	}
	if err != nil {
		return "", err
	}
	if !res.AllSynced && !s.warm {
		return "", fmt.Errorf("gallery %s: trapdoor did not synchronize in %d rounds", name, res.Stats.Rounds)
	}
	return digest(res), nil
}

func (s *sparseStack) rendezvous(seed, aux uint64, parent int64) (string, error) {
	sz := s.sz.rdv
	width := rendezvous.OptimalWidth(sz.f, sz.t)
	parties := make([]rendezvous.Party, sz.parties)
	for p := range parties {
		parties[p] = rendezvous.Party{Strategy: width, Wake: uint64(1 + 3*p)}
	}
	cfg := &rendezvous.Config{
		F:         sz.f,
		Parties:   parties,
		Jammer:    rendezvous.NewGreedy(sz.f, sz.t),
		Masks:     churn.NewMaskFlip(sz.parties, sz.f, sz.rate, aux),
		MaxRounds: sz.maxRounds,
		Seed:      seed,
	}
	var jam *timedJammer
	var masks *timedMasks
	if s.tr != nil {
		jam = &timedJammer{inner: cfg.Jammer}
		masks = &timedMasks{inner: cfg.Masks}
		cfg.Jammer, cfg.Masks = jam, masks
	}
	sp := s.tr.open("rendezvous.Run", parent)
	res, err := rendezvous.Run(cfg)
	if s.tr != nil {
		ns := float64(sp.close(jam.stat("rendezvous.Jammer.Block"), masks.stat("rendezvous.MaskModel.MaskDeltas")))
		s.tr.add("rdv.ns", ns)
		if res != nil {
			s.tr.add("rdv.rounds", float64(res.Rounds))
		}
		s.tr.add("jam.ns", float64(jam.ns))
		s.tr.add("jam.calls", float64(jam.calls))
		s.tr.add("masks.ns", float64(masks.ns))
		s.tr.add("masks.calls", float64(masks.calls))
	}
	if err != nil {
		return "", err
	}
	if res.AllMet == 0 {
		return "", fmt.Errorf("rendezvous: %d parties never all met in %d rounds", sz.parties, res.Rounds)
	}
	return digest(res), nil
}
