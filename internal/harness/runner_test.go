package harness

import (
	"bytes"
	"testing"

	"wsync/internal/rng"
	"wsync/internal/stats"
)

// TestRunnerDeterminism is the runner's headline guarantee: sequential
// (Parallelism 1) and parallel (Parallelism 8) runs of the same experiment
// produce byte-identical tables. One trapdoor and one samaritan experiment
// cover both protocol families' trial loops; L9 pins its fold over one
// pooled batch of every config's trials, X3 its fold of pooled crash
// trials, and X2 and X4 that parallel trials never share a per-trial
// arena.
func TestRunnerDeterminism(t *testing.T) {
	for _, id := range []string{"T10a", "T18a", "L9", "X2", "X3", "X4"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not found", id)
			}
			render := func(parallelism int) []byte {
				opt := Options{Quick: true, Trials: 4, Seed: 7, Parallelism: parallelism}
				tbl, err := e.Run(opt)
				if err != nil {
					t.Fatalf("%s (parallelism %d): %v", id, parallelism, err)
				}
				var buf bytes.Buffer
				if err := tbl.Render(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			seq := render(1)
			par := render(8)
			if !bytes.Equal(seq, par) {
				t.Errorf("%s differs between P=1 and P=8:\n--- P=1 ---\n%s--- P=8 ---\n%s", id, seq, par)
			}
		})
	}
}

// TestTrialSeedProperties pins the seed derivation: pure in its inputs,
// sensitive to every input, and collision-free across a realistic grid.
func TestTrialSeedProperties(t *testing.T) {
	o := Options{Seed: 42}
	if o.TrialSeed(7, 3) != o.TrialSeed(7, 3) {
		t.Fatal("TrialSeed is not a pure function")
	}
	seen := map[uint64]string{}
	for _, point := range []uint64{0, 1, 7, 7000, 9000} {
		for trial := 0; trial < 100; trial++ {
			s := o.TrialSeed(point, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) vs %s", point, trial, prev)
			}
			seen[s] = "earlier trial"
		}
	}
	if o.TrialSeed(1, 2) == (Options{Seed: 43}).TrialSeed(1, 2) {
		t.Error("TrialSeed ignores Options.Seed")
	}
}

// TestSummarizeTrialsMatchesSummarize checks that the streaming
// accumulator path produces exactly the Summary the collect-then-sort
// path would, at every parallelism level.
func TestSummarizeTrialsMatchesSummarize(t *testing.T) {
	const n = 500
	xs := make([]float64, n)
	r := rng.New(5)
	for i := range xs {
		// Integer-heavy with repeats, like round counts.
		xs[i] = float64(r.Intn(40))
	}
	want := stats.Summarize(xs)
	for _, par := range []int{1, 2, 7, 16} {
		o := Options{Parallelism: par}
		got, err := o.summarizeTrials(n, func(i int) (float64, error) { return xs[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parallelism %d: summary %+v != %+v", par, got, want)
		}
	}
	// Errors surface, and deterministically prefer the lowest trial index.
	o := Options{Parallelism: 8}
	_, err := o.summarizeTrials(64, func(i int) (float64, error) {
		if i >= 32 {
			return 0, checkFailf("trial %d failed", i)
		}
		return 1, nil
	})
	if err == nil || err.Error() != "harness: trial 32 failed" {
		t.Fatalf("err = %v, want deterministic first-by-index error", err)
	}
}
