package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsync/internal/shard"
)

// capture runs run() with stdout and stderr buffered and returns
// (exit code, stdout, stderr).
func capture(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestList(t *testing.T) {
	code, out, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, id := range []string{"F1", "T10a", "T18a", "X7"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
}

// TestUnknownExperiment pins the error contract: an unknown -run id fails
// with the full list of valid ids, instead of silently running nothing.
func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := capture(t, []string{"-run", "ZZZ"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, `"ZZZ"`) {
		t.Errorf("error does not name the bad id: %q", errOut)
	}
	for _, id := range []string{"F1", "T10a", "X7", "R3"} {
		if !strings.Contains(errOut, id) {
			t.Errorf("error does not list valid id %s: %q", id, errOut)
		}
	}
}

func TestBadFlag(t *testing.T) {
	code, _, _ := capture(t, []string{"-definitely-not-a-flag"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-run", "F1"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "Trapdoor epoch schedule") || !strings.Contains(out, "note:") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunMarkdown(t *testing.T) {
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-run", "F2", "-format", "markdown"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "| super-epoch |") {
		t.Fatalf("markdown table missing:\n%s", out)
	}
}

// TestRunJSONReport checks the machine-readable report CI consumes: valid
// JSON, schema-tagged, one entry per requested experiment.
func TestRunJSONReport(t *testing.T) {
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-parallel", "4", "-json", "-run", "F1,L2"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var rep shard.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Schema != shard.Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, shard.Schema)
	}
	if rep.Parallelism != 4 || rep.Trials != 2 || !rep.Quick {
		t.Errorf("options not echoed: %+v", rep)
	}
	if rep.EffectiveTrials != 2 || rep.EffectiveParallelism != 4 {
		t.Errorf("effective options not recorded: %+v", rep)
	}
	if rep.Shard != nil {
		t.Errorf("unsharded run stamped shard metadata: %+v", rep.Shard)
	}
	if len(rep.Experiments) != 2 {
		t.Fatalf("got %d experiments, want 2", len(rep.Experiments))
	}
	for i, want := range []string{"F1", "L2"} {
		e := rep.Experiments[i]
		if e.Table == nil || e.Table.ID != want {
			t.Errorf("experiment %d = %+v, want id %s", i, e.Table, want)
		}
		if e.Table != nil && (len(e.Table.Columns) == 0 || len(e.Table.Rows) == 0) {
			t.Errorf("%s table empty: %+v", want, e.Table)
		}
	}
}

// TestRunJSONToDir checks per-experiment JSON files under -out.
func TestRunJSONToDir(t *testing.T) {
	dir := t.TempDir()
	code, _, _ := capture(t, []string{"-quick", "-trials", "2", "-run", "F1", "-format", "json", "-out", dir})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dir, "F1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tbl map[string]any
	if err := json.Unmarshal(data, &tbl); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if tbl["id"] != "F1" {
		t.Fatalf("id = %v", tbl["id"])
	}
}

// TestParallelFlagDeterminism asserts the CLI contract behind the CI
// benchmark job: the same options at different -parallel values produce
// identical tables (only elapsed times may differ).
func TestParallelFlagDeterminism(t *testing.T) {
	strip := func(out string) string {
		var rep shard.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		rep.ZeroVolatile()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	args := []string{"-quick", "-trials", "3", "-seed", "11", "-json", "-run", "T10a,T4"}
	code, seq, _ := capture(t, append([]string{"-parallel", "1"}, args...))
	if code != 0 {
		t.Fatalf("sequential exit = %d", code)
	}
	code, par, _ := capture(t, append([]string{"-parallel", "8"}, args...))
	if code != 0 {
		t.Fatalf("parallel exit = %d", code)
	}
	if strip(seq) != strip(par) {
		t.Fatalf("-parallel changed results:\nP=1: %s\nP=8: %s", seq, par)
	}
}

// TestFullFlagConflictsWithQuick pins the tier flags' mutual exclusion.
func TestFullFlagConflictsWithQuick(t *testing.T) {
	code, _, _ := capture(t, []string{"-quick", "-full", "-run", "F1"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestFullFlagReport checks that the -full tier is recorded in the
// wsync-bench/v1 report (on a grid-less experiment, so the test stays
// fast; the full sweep grids themselves run in CI's bench job).
func TestFullFlagReport(t *testing.T) {
	code, out, _ := capture(t, []string{"-full", "-trials", "2", "-json", "-run", "F1"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var rep shard.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if !rep.Full || rep.Quick {
		t.Errorf("tier not echoed: %+v", rep)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Table == nil || rep.Experiments[0].Table.ID != "F1" {
		t.Errorf("experiment entry malformed: %+v", rep.Experiments)
	}
	// ElapsedMS legitimately rounds to 0 for a grid-less experiment, so
	// assert the field's presence in the raw document instead.
	if !strings.Contains(out, `"elapsed_ms"`) {
		t.Errorf("wall time missing from report:\n%s", out)
	}
}

func TestBadFormat(t *testing.T) {
	code, _, _ := capture(t, []string{"-format", "yaml"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRunCSVToDir(t *testing.T) {
	dir := t.TempDir()
	code, _, _ := capture(t, []string{"-quick", "-trials", "2", "-run", "L2", "-format", "csv", "-out", dir})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(filepath.Join(dir, "L2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "s,") {
		t.Fatalf("csv = %q", string(data)[:20])
	}
}

// TestShardFlagValidation pins the shard CLI's usage errors.
func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"shards without index", []string{"-shards", "3", "-run", "F1"}},
		{"index without shards", []string{"-shard-index", "0", "-run", "F1"}},
		{"index out of range", []string{"-shards", "3", "-shard-index", "3", "-run", "F1"}},
		{"negative index", []string{"-shards", "3", "-shard-index", "-2", "-run", "F1"}},
		{"negative shards", []string{"-shards", "-1", "-shard-index", "0", "-run", "F1"}},
		{"plan-costs without shards", []string{"-plan-costs", "x.json", "-run", "F1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if code, _, _ := capture(t, c.args); code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
		})
	}
}

// TestShardWorkerMetadata checks the worker path: a -shards run executes
// exactly its partition and stamps the artifact with shard metadata.
func TestShardWorkerMetadata(t *testing.T) {
	ran := map[string]bool{}
	var metas []*shard.Meta
	for i := 0; i < 2; i++ {
		code, out, errOut := capture(t, []string{
			"-quick", "-trials", "2", "-run", "F1,L2,T4",
			"-shards", "2", "-shard-index", fmt.Sprint(i), "-json"})
		if code != 0 {
			t.Fatalf("shard %d exit = %d: %s", i, code, errOut)
		}
		var rep shard.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("shard %d: invalid JSON: %v", i, err)
		}
		if rep.Shard == nil || rep.Shard.Count != 2 || rep.Shard.Index != i {
			t.Fatalf("shard %d metadata = %+v", i, rep.Shard)
		}
		if strings.Join(rep.Shard.Selection, ",") != "F1,L2,T4" {
			t.Fatalf("shard %d selection = %v, want the full -run list", i, rep.Shard.Selection)
		}
		if len(rep.Experiments) != len(rep.Shard.IDs) {
			t.Fatalf("shard %d ran %d experiments, metadata says %v", i, len(rep.Experiments), rep.Shard.IDs)
		}
		for j, e := range rep.Experiments {
			if e.Table.ID != rep.Shard.IDs[j] {
				t.Fatalf("shard %d order: ran %s at %d, plan says %s", i, e.Table.ID, j, rep.Shard.IDs[j])
			}
			if ran[e.Table.ID] {
				t.Fatalf("experiment %s ran on two shards", e.Table.ID)
			}
			ran[e.Table.ID] = true
		}
		metas = append(metas, rep.Shard)
	}
	for _, id := range []string{"F1", "L2", "T4"} {
		if !ran[id] {
			t.Errorf("experiment %s ran on no shard (metas: %+v)", id, metas)
		}
	}
}

// writeTemp writes one captured artifact to a temp file for the merge CLI.
func writeTemp(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mergeNormalize runs the merge CLI with -zero-volatile over the given
// artifacts and returns the normalized document.
func mergeNormalize(t *testing.T, paths ...string) string {
	t.Helper()
	code, out, errOut := capture(t, append([]string{"merge", "-zero-volatile"}, paths...))
	if code != 0 {
		t.Fatalf("merge exit = %d: %s", code, errOut)
	}
	return out
}

// TestShardMergeIdentity is the subsystem's headline invariant: for
// K ∈ {1, 2, 5}, merging the K shard artifacts of a default-tier run is
// byte-identical to the unsharded report once both sides pass through
// `merge -zero-volatile` (which zeroes only the fields BENCH_FORMAT.md
// documents as volatile). CI's shard-smoke job enforces the same with
// the real binary on every push.
func TestShardMergeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("default-tier sweeps are too slow for -short")
	}
	dir := t.TempDir()
	base := []string{"-trials", "2", "-json"}

	code, out, errOut := capture(t, base)
	if code != 0 {
		t.Fatalf("unsharded exit = %d: %s", code, errOut)
	}
	unsharded := writeTemp(t, dir, "unsharded.json", out)
	want := mergeNormalize(t, unsharded)
	if !strings.Contains(want, `"T10a"`) {
		t.Fatalf("normalized unsharded report looks empty:\n%.400s", want)
	}

	for _, k := range []int{1, 2, 5} {
		var paths []string
		for i := 0; i < k; i++ {
			args := append([]string{"-shards", fmt.Sprint(k), "-shard-index", fmt.Sprint(i)}, base...)
			code, out, errOut := capture(t, args)
			if code != 0 {
				t.Fatalf("K=%d shard %d exit = %d: %s", k, i, code, errOut)
			}
			paths = append(paths, writeTemp(t, dir, fmt.Sprintf("k%d_s%d.json", k, i), out))
		}
		if got := mergeNormalize(t, paths...); got != want {
			t.Fatalf("K=%d merged report differs from unsharded (lens %d vs %d)", k, len(got), len(want))
		}
	}
}

// TestMergeRejectsEnvelopeMismatch checks the merge CLI refuses
// artifacts from different sweeps.
func TestMergeRejectsEnvelopeMismatch(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, seed := range []string{"1", "2"} {
		code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-seed", seed, "-json", "-run", "F1"})
		if code != 0 {
			t.Fatalf("exit = %d", code)
		}
		paths = append(paths, writeTemp(t, dir, fmt.Sprintf("seed%d.json", i), out))
	}
	code, _, errOut := capture(t, append([]string{"merge"}, paths...))
	if code != 1 {
		t.Fatalf("merge exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "seed") {
		t.Fatalf("error does not name the mismatched field: %q", errOut)
	}
}

// TestMergeCollapsesDuplicates: merging an artifact with itself is the
// artifact (identical duplicate ids collapse).
func TestMergeCollapsesDuplicates(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-json", "-run", "F1,L2"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	p := writeTemp(t, dir, "rep.json", out)
	if mergeNormalize(t, p, p) != mergeNormalize(t, p) {
		t.Fatal("self-merge is not idempotent")
	}
}

// TestMergeUsage pins the merge subcommand's usage and I/O errors.
func TestMergeUsage(t *testing.T) {
	if code, _, _ := capture(t, []string{"merge"}); code != 2 {
		t.Fatalf("no inputs: exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, []string{"merge", "/definitely/not/a/file.json"}); code != 1 {
		t.Fatalf("missing file: exit = %d, want 1", code)
	}
	bad := writeTemp(t, t.TempDir(), "bad.json", `{"schema":"wsync-bench/v999"}`)
	if code, _, errOut := capture(t, []string{"merge", bad}); code != 1 || !strings.Contains(errOut, "schema") {
		t.Fatalf("wrong schema: exit = %d, stderr = %q", code, errOut)
	}
}

// TestMergeOutFile checks -out writes the merged report to a file.
func TestMergeOutFile(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-json", "-run", "F1"})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	in := writeTemp(t, dir, "in.json", out)
	dst := filepath.Join(dir, "merged.json")
	code, stdout, errOut := capture(t, []string{"merge", "-out", dst, in})
	if code != 0 {
		t.Fatalf("merge exit = %d: %s", code, errOut)
	}
	if stdout != "" {
		t.Fatalf("merge -out still wrote to stdout: %q", stdout)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Decode(data); err != nil {
		t.Fatalf("merged file invalid: %v", err)
	}
}

// TestPlanCostsFlag checks the cost-balanced worker path end to end: a
// prior artifact feeds -plan-costs and the sharded run still covers the
// selection exactly.
func TestPlanCostsFlag(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := capture(t, []string{"-quick", "-trials", "2", "-json", "-run", "F1,L2,T4"})
	if code != 0 {
		t.Fatalf("prior run exit = %d", code)
	}
	prior := writeTemp(t, dir, "prior.json", out)
	ran := map[string]bool{}
	for i := 0; i < 2; i++ {
		code, out, errOut := capture(t, []string{
			"-quick", "-trials", "2", "-run", "F1,L2,T4",
			"-shards", "2", "-shard-index", fmt.Sprint(i), "-plan-costs", prior, "-json"})
		if code != 0 {
			t.Fatalf("shard %d exit = %d: %s", i, code, errOut)
		}
		var rep shard.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatal(err)
		}
		for _, e := range rep.Experiments {
			if ran[e.Table.ID] {
				t.Fatalf("experiment %s ran twice", e.Table.ID)
			}
			ran[e.Table.ID] = true
		}
	}
	if len(ran) != 3 {
		t.Fatalf("cost-balanced shards covered %d of 3 experiments", len(ran))
	}
	// A bad prior report is a hard error, not a silent uniform fallback.
	code, _, errOut := capture(t, []string{
		"-run", "F1", "-shards", "2", "-shard-index", "0",
		"-plan-costs", filepath.Join(dir, "nope.json"), "-json"})
	if code != 1 || !strings.Contains(errOut, "-plan-costs") {
		t.Fatalf("missing costs file: exit = %d, stderr = %q", code, errOut)
	}
}
