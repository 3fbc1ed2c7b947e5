package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"wsync/internal/harness"
	"wsync/internal/shard"
)

type sweepSize struct {
	opt      harness.Options // one measured pass
	warm     harness.Options // the warm-up pass of set-up
	run      []string        // experiment ids; nil is the whole catalogue
	minUnits int
}

// sweepStack runs wexp's serial loop: every selected experiment in
// catalogue order, one after another, then the report encoding. One unit
// is one pass; every pass has the same inputs.
type sweepStack struct {
	o    *options
	opt  harness.Options
	exps []harness.Experiment
	tr   *tracer
}

func setupSweep(o *options, tr *tracer) (stack, error) {
	sz := o.sz.sweep
	var exps []harness.Experiment
	if sz.run == nil {
		exps = harness.All()
	}
	for _, id := range sz.run {
		e, ok := harness.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	// Warm-up: the quick tier touches every experiment's code and grows
	// the heap before the first timed pass.
	warm := sz.warm
	warm.Seed = o.seed
	for _, e := range exps {
		if _, err := e.Run(warm); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", e.ID, err)
		}
	}
	opt := sz.opt
	opt.Seed = o.seed
	return &sweepStack{o: o, opt: opt, exps: exps, tr: tr}, nil
}

func (s *sweepStack) bounds() (int, int) { return s.o.sz.sweep.minUnits, 0 }

func (s *sweepStack) close() {}

func (s *sweepStack) unit(u int, parent int64) (unitOut, error) {
	out := unitOut{key: fmt.Sprintf("seed=%d", s.opt.Seed)}
	rep := shard.Report{
		Schema:               shard.Schema,
		Trials:               s.opt.Trials,
		EffectiveTrials:      s.opt.EffectiveTrials(),
		Seed:                 s.opt.Seed,
		Quick:                s.opt.Quick,
		Full:                 s.opt.Full,
		Parallelism:          s.opt.Parallelism,
		EffectiveParallelism: s.opt.EffectiveParallelism(),
		Experiments:          []shard.Entry{},
	}
	for _, e := range s.exps {
		out.ops++
		before := nodeRounds()
		sp := s.tr.open("harness.Experiment.Run", parent)
		start := time.Now()
		tbl, err := e.Run(s.opt)
		elapsed := time.Since(start)
		sp.close()
		if err != nil {
			out.failed++
			s.o.logf("sweep-default: %s: %v", e.ID, err)
			continue
		}
		s.tr.sample("exp."+e.ID, elapsed.Seconds())
		after := nodeRounds()
		nr := (after[0] - before[0]) + (after[1] - before[1]) + (after[2] - before[2])
		rep.Experiments = append(rep.Experiments, shard.Entry{
			Table:            tbl,
			ElapsedMS:        elapsed.Round(time.Millisecond).Milliseconds(),
			NodeRounds:       nr,
			NodeRoundsPerSec: float64(nr) / elapsed.Seconds(),
		})
	}
	var buf bytes.Buffer
	sp := s.tr.open("shard.Report.Encode", parent)
	start := time.Now()
	err := rep.Encode(&buf)
	s.tr.sample("shard.encode_s", time.Since(start).Seconds())
	sp.close()
	if err != nil {
		return out, fmt.Errorf("encoding the report: %w", err)
	}
	s.tr.sample("shard.report_bytes", float64(buf.Len()))
	out.digest, err = reportDigest(&rep)
	return out, err
}

// reportDigest is the SHA-256 of a report's encoding after its volatile
// fields (wall times, throughput, parallelism) are zeroed.
func reportDigest(rep *shard.Report) (string, error) {
	rep.ZeroVolatile()
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
