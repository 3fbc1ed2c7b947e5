package rendezvous

import (
	"strings"
	"testing"
)

// scriptedMasks replays a fixed per-round delta script (nil entries are
// quiet rounds) — the deterministic harness for the dynamic-mask path.
type scriptedMasks struct {
	script map[uint64][2][][2]int // round -> {block, unblock}
}

func (m *scriptedMasks) MaskDeltas(r uint64) (block, unblock [][2]int) {
	d := m.script[r]
	return d[0], d[1]
}

// TestDynamicMasksConstantMatchesStatic pins the dynamic path against the
// static one: blocking a fixed (party, channel) set at round 2 while the
// parties wake at round 2 must reproduce the static Party.Mask game
// byte for byte — same graph semantics, different machinery.
func TestDynamicMasksConstantMatchesStatic(t *testing.T) {
	const f = 5
	masks := [][]int{{1, 2}, {4}}
	var block [][2]int
	for p, chans := range masks {
		for _, ch := range chans {
			block = append(block, [2]int{p, ch})
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		static, err := Run(&Config{
			F: f,
			Parties: []Party{
				{Strategy: Uniform{M: f, P: 0.5}, Wake: 2, Mask: masks[0]},
				{Strategy: Uniform{M: f, P: 0.5}, Wake: 2, Mask: masks[1]},
			},
			MaxRounds: 400,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := Run(&Config{
			F: f,
			Parties: []Party{
				{Strategy: Uniform{M: f, P: 0.5}, Wake: 2},
				{Strategy: Uniform{M: f, P: 0.5}, Wake: 2},
			},
			Masks:     &scriptedMasks{script: map[uint64][2][][2]int{2: {block, nil}}},
			MaxRounds: 400,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if *static != *dynamic {
			t.Fatalf("seed %d: static %+v vs dynamic %+v", seed, static, dynamic)
		}
	}
}

// TestDynamicMasksBlockAllStarves blocks every channel for every party
// from round 2 on (parties wake at round 2): no clean reception can ever
// happen, so the game runs to MaxRounds without a meeting.
func TestDynamicMasksBlockAllStarves(t *testing.T) {
	const f, k = 3, 2
	var block [][2]int
	for p := 0; p < k; p++ {
		for ch := 1; ch <= f; ch++ {
			block = append(block, [2]int{p, ch})
		}
	}
	res, err := Run(&Config{
		F: f,
		Parties: []Party{
			{Strategy: Uniform{M: f, P: 0.5}, Wake: 2},
			{Strategy: Uniform{M: f, P: 0.5}, Wake: 2},
		},
		Masks:     &scriptedMasks{script: map[uint64][2][][2]int{2: {block, nil}}},
		MaxRounds: 200,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstMeet != 0 || res.AllMet != 0 || res.Meetings != 0 {
		t.Fatalf("fully masked game still met: %+v", res)
	}
	if res.Rounds != 200 {
		t.Fatalf("fully masked game stopped early at round %d", res.Rounds)
	}
}

// TestDynamicMasksChurn toggles one slot on and off across rounds — the
// block/unblock/re-block path — and expects a clean finish.
func TestDynamicMasksChurn(t *testing.T) {
	res, err := Run(&Config{
		F: 3,
		Parties: []Party{
			{Strategy: Uniform{M: 3, P: 0.5}},
			{Strategy: Uniform{M: 3, P: 0.5}},
		},
		Masks: &scriptedMasks{script: map[uint64][2][][2]int{
			2: {[][2]int{{0, 1}}, nil},
			3: {nil, [][2]int{{0, 1}}},
			4: {[][2]int{{0, 1}, {1, 2}}, nil},
			6: {nil, [][2]int{{1, 2}}},
		}},
		MaxRounds: 500,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMet == 0 {
		t.Fatalf("briefly masked game never met: %+v", res)
	}
}

// TestDynamicMaskErrors drives every validation branch of the delta
// applier.
func TestDynamicMaskErrors(t *testing.T) {
	cases := []struct {
		name   string
		script map[uint64][2][][2]int
		want   string
	}{
		{"party-negative", map[uint64][2][][2]int{2: {[][2]int{{-1, 1}}, nil}}, "party -1"},
		{"party-high", map[uint64][2][][2]int{2: {[][2]int{{2, 1}}, nil}}, "party 2"},
		{"channel-zero", map[uint64][2][][2]int{2: {[][2]int{{0, 0}}, nil}}, "channel 0"},
		{"channel-high", map[uint64][2][][2]int{2: {[][2]int{{0, 4}}, nil}}, "channel 4"},
		{"double-block", map[uint64][2][][2]int{
			2: {[][2]int{{0, 1}}, nil},
			3: {[][2]int{{0, 1}}, nil},
		}, "twice"},
		{"unblock-unblocked", map[uint64][2][][2]int{2: {nil, [][2]int{{0, 1}}}}, "not blocked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// P = 1 keeps both parties transmitting, so the game cannot
			// meet and stop before the scripted round fires.
			_, err := Run(&Config{
				F: 3,
				Parties: []Party{
					{Strategy: Uniform{M: 3, P: 1}},
					{Strategy: Uniform{M: 3, P: 1}},
				},
				Masks:     &scriptedMasks{script: tc.script},
				MaxRounds: 10,
				Seed:      1,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
