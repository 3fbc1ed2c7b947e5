package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wsync"
)

func runCapture(t *testing.T, args []string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	code := run(args, &buf)
	return code, buf.String()
}

func TestTrapdoorRun(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "trapdoor", "-n", "3", "-N", "16", "-F", "6", "-t", "2",
		"-adversary", "fixed", "-seed", "4",
	})
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, frag := range []string{"all synced: true", "leaders: 1", "properties OK"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestSamaritanRun(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "samaritan", "-n", "2", "-N", "16", "-F", "8", "-t", "4",
		"-adversary", "fixed", "-tprime", "1", "-seed", "3",
	})
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "all synced: true") {
		t.Fatalf("samaritan did not sync:\n%s", out)
	}
}

func TestTraceFlag(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "trapdoor", "-n", "2", "-N", "8", "-F", "4", "-t", "1",
		"-trace", "4", "-seed", "5",
	})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "trace: last") {
		t.Fatalf("trace missing:\n%s", out)
	}
}

func TestActivationsAndEngines(t *testing.T) {
	for _, extra := range [][]string{
		{"-activation", "staggered", "-gap", "10"},
		{"-activation", "random", "-window", "50"},
		{"-ft"},
		{"-adversary", "random"},
		{"-adversary", "sweep"},
	} {
		args := append([]string{
			"-protocol", "trapdoor", "-n", "2", "-N", "8", "-F", "4", "-t", "1", "-seed", "6",
		}, extra...)
		if code, out := runCapture(t, args); code != 0 {
			t.Errorf("args %v: exit %d\n%s", extra, code, out)
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-activation", "nope"},
		{"-adversary", "nope"},
		{"-not-a-flag"},
		{"-protocol", "trapdoor", "-F", "0"},
		{"-protocol", "samaritan", "-F", "4", "-t", "3"},
		{"-protocol", "wakeup", "-F", "0"},
		{"-n", "0"},
		{"-N", "0"},
		// t' above the budget: an error, not an engine panic.
		{"-n", "3", "-N", "16", "-F", "8", "-t", "2", "-tprime", "3"},
	}
	for _, args := range cases {
		if code, _ := runCapture(t, args); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestBaselineProtocols(t *testing.T) {
	for _, proto := range []string{"wakeup", "roundrobin", "singlefreq"} {
		code, _ := runCapture(t, []string{
			"-protocol", proto, "-n", "2", "-N", "8", "-F", "4", "-t", "0",
			"-adversary", "none", "-rounds", "30000", "-seed", "7",
		})
		if code != 0 {
			t.Errorf("%s: exit %d", proto, code)
		}
	}
}

// TestOutputMatchesLibrary checks the flag layer: wsim's per-node table
// and summary equal those rendered from wsync.Run on the Config its flags
// describe, written out here by hand.
func TestOutputMatchesLibrary(t *testing.T) {
	for _, c := range []struct {
		args []string
		cfg  wsync.Config
	}{
		{[]string{}, wsync.Config{
			Protocol: wsync.Trapdoor, Nodes: 8, N: 64, F: 8, T: 2, Adversary: "fixed",
			Activation: "simultaneous", ActivationGap: 50, ActivationWindow: 1000, Seed: 1, MaxRounds: 1 << 22,
		}},
		{[]string{"-protocol", "samaritan", "-n", "4", "-N", "16", "-F", "16", "-t", "8", "-tprime", "1", "-seed", "3"},
			wsync.Config{
				Protocol: wsync.GoodSamaritan, Nodes: 4, N: 16, F: 16, T: 8, Adversary: "fixed", JammedPrefix: 1,
				ActivationGap: 50, ActivationWindow: 1000, Seed: 3, MaxRounds: 1 << 22,
			}},
		{[]string{"-ft", "-n", "3", "-N", "16", "-activation", "random", "-window", "60", "-adversary", "bursty", "-seed", "0"},
			wsync.Config{
				Protocol: wsync.Trapdoor, FaultTolerant: true, Nodes: 3, N: 16, F: 8, T: 2, Adversary: "bursty",
				Activation: "random", ActivationWindow: 60, ActivationGap: 50, MaxRounds: 1 << 22,
			}},
		{[]string{"-protocol", "singlefreq", "-n", "4", "-activation", "staggered", "-gap", "5", "-tprime", "0", "-rounds", "3000"},
			wsync.Config{
				Protocol: wsync.BaselineSingleFreq, Nodes: 4, N: 64, F: 8, T: 2, Adversary: "none",
				Activation: "staggered", ActivationGap: 5, ActivationWindow: 1000, Seed: 1, MaxRounds: 3000,
			}},
		{[]string{"-protocol", "wakeup", "-n", "8", "-activation", "staggered", "-seed", "7", "-adversary", "stalker"},
			wsync.Config{
				Protocol: wsync.BaselineWakeup, Nodes: 8, N: 64, F: 8, T: 2, Adversary: "stalker",
				Activation: "staggered", ActivationGap: 50, ActivationWindow: 1000, Seed: 7, MaxRounds: 1 << 22,
			}},
	} {
		code, out := runCapture(t, c.args)
		res, err := wsync.Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		report(&want, res)
		wantCode := 0
		if !res.PropertiesOK {
			wantCode = 1
			for _, v := range res.Violations {
				fmt.Fprintf(&want, "  %s\n", v)
			}
		}
		_, body, _ := strings.Cut(out, "\n") // drop the flag echo
		if code != wantCode || body != want.String() {
			t.Errorf("args %v: exit %d, output\n%s\nwant exit %d, output\n%s", c.args, code, body, wantCode, want.String())
		}
	}
}
