package harness

import (
	"bytes"
	"strings"
	"testing"

	"wsync/internal/sim"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T0",
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", 1234.0)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"T0", "demo", "a", "bbbb", "2.50", "1234", "note: hello"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tbl := &Table{ID: "T0", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow(1, 2)
	var md bytes.Buffer
	if err := tbl.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | b |") {
		t.Errorf("markdown header missing:\n%s", md.String())
	}
	var csvBuf bytes.Buffer
	if err := tbl.CSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,b\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1234:    "1234",
		250.7:   "251",
		2.5:     "2.50",
		0.125:   "0.1250",
		-3:      "-3",
		-250.72: "-251",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestMapTrialsOrderAndErrors(t *testing.T) {
	for _, par := range []int{1, 4, 32} {
		o := Options{Parallelism: par}
		xs, err := mapTrials(o, 32, func(i int) (float64, error) { return float64(i * i), nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			if x != float64(i*i) {
				t.Fatalf("parallelism %d: xs[%d] = %v", par, i, x)
			}
		}
		_, err = mapTrials(o, 8, func(i int) (float64, error) {
			if i == 5 {
				return 0, checkFailf("boom")
			}
			return 0, nil
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
	}
}

func TestWeightObserver(t *testing.T) {
	w := &WeightObserver{}
	w.ObserveRound(&sim.RoundRecord{Round: 1, Weights: []float64{0.25, 0.25}})
	w.ObserveRound(&sim.RoundRecord{Round: 2, Weights: []float64{0.5, 0.75}})
	w.ObserveRound(&sim.RoundRecord{Round: 3, Weights: nil}) // probing off
	if w.Max != 1.25 || w.MaxRound != 2 {
		t.Fatalf("max = %v at %d", w.Max, w.MaxRound)
	}
	if got := w.MeanWeight(); got != (0.5+1.25)/2 {
		t.Fatalf("mean = %v", got)
	}
	empty := &WeightObserver{}
	if empty.MeanWeight() != 0 {
		t.Fatal("empty mean != 0")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T10a"); !ok {
		t.Fatal("T10a not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// TestAllExperimentsQuick runs every experiment on its smallest grid and
// validates the resulting tables. This is the harness's integration test;
// it intentionally runs everything end to end.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	opt := Options{Quick: true, Trials: 3, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(opt)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s: row width %d != %d columns", e.ID, len(row), len(tbl.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Errorf("%s: render: %v", e.ID, err)
			}
		})
	}
}
