package rendezvous_test

import (
	"fmt"
	"testing"

	"wsync/internal/adversary"
	"wsync/internal/churn"
	"wsync/internal/rendezvous"
)

// goldenCase builds the game named by (k, jammer, masks, seed) on a band
// of 24 channels with 6 blocked: wakes and local-clock heads staggered,
// a mix of stateless and stateful strategies, static per-party masks,
// churn.MaskFlip dynamic masks, and every jammer kind.
func goldenCase(k int, jam, masks string, seed uint64) *rendezvous.Config {
	const f, t = 24, 6
	parties := make([]rendezvous.Party, k)
	for p := range parties {
		var s rendezvous.Strategy
		switch p % 3 {
		case 0:
			s = rendezvous.OptimalWidth(f, t)
		case 1:
			s = &rendezvous.StayRamble{M: f, Dwell: 4, PStay: 0.5, P: 0.5}
		default:
			s = rendezvous.Uniform{M: f - 4, P: 0.3}
		}
		parties[p] = rendezvous.Party{Strategy: s, Wake: uint64(1 + 2*p), Head: uint64(5 * (p % 4))}
		if masks == "static" || masks == "both" {
			parties[p].Mask = []int{1 + p%f, 1 + (p+5)%f, 1 + (p+11)%f}
		}
	}
	cfg := &rendezvous.Config{F: f, Parties: parties, MaxRounds: 3000, Seed: seed}
	if masks == "flip" || masks == "both" {
		cfg.Masks = churn.NewMaskFlip(k, f, 0.05, seed+100)
	}
	switch jam {
	case "static":
		cfg.Jammer = rendezvous.NewStatic(f, []int{2, 5, 9, 14, 20})
	case "greedy":
		cfg.Jammer = rendezvous.NewGreedy(f, t)
	case "random":
		cfg.Jammer = rendezvous.NewChurn(f, adversary.NewRandom(f, t, seed+200))
	case "reactive":
		cfg.Jammer = rendezvous.NewChurn(f, adversary.NewReactive(f, t))
	}
	return cfg
}

// TestGoldenResults pins the full Result of a grid of games — k ∈ {2, 3,
// 16}, every jammer kind, static and dynamic masks alone and together —
// to the values the engine produced before it became a driver over the
// sim round core.
func TestGoldenResults(t *testing.T) {
	for _, k := range []int{2, 3, 16} {
		for _, jam := range []string{"none", "static", "greedy", "random", "reactive"} {
			for _, masks := range []string{"none", "static", "flip", "both"} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("k%d/%s/%s/s%d", k, jam, masks, seed)
					got, err := rendezvous.Run(goldenCase(k, jam, masks, seed))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want, ok := goldenResults[name]; !ok || *got != want {
						t.Errorf("%s: got %#v, want %#v", name, *got, want)
					}
				}
			}
		}
	}
}

var goldenResults = map[string]rendezvous.Result{
	"k2/none/none/s1":        {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/none/none/s2":        {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/none/none/s3":        {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/none/static/s1":      {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/none/static/s2":      {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/none/static/s3":      {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/none/flip/s1":        {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/none/flip/s2":        {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/none/flip/s3":        {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/none/both/s1":        {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/none/both/s2":        {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/none/both/s3":        {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/static/none/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/static/none/s2":      {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/static/none/s3":      {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/static/static/s1":    {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/static/static/s2":    {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/static/static/s3":    {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/static/flip/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/static/flip/s2":      {FirstMeet: 267, AllMet: 267, Meetings: 1, Rounds: 267, NodeRounds: 532},
	"k2/static/flip/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/static/both/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/static/both/s2":      {FirstMeet: 390, AllMet: 390, Meetings: 1, Rounds: 390, NodeRounds: 778},
	"k2/static/both/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/greedy/none/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/greedy/none/s2":      {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/greedy/none/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/greedy/static/s1":    {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/greedy/static/s2":    {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/greedy/static/s3":    {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/greedy/flip/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/greedy/flip/s2":      {FirstMeet: 390, AllMet: 390, Meetings: 1, Rounds: 390, NodeRounds: 778},
	"k2/greedy/flip/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/greedy/both/s1":      {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/greedy/both/s2":      {FirstMeet: 390, AllMet: 390, Meetings: 1, Rounds: 390, NodeRounds: 778},
	"k2/greedy/both/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/random/none/s1":      {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/random/none/s2":      {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/random/none/s3":      {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/random/static/s1":    {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/random/static/s2":    {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/random/static/s3":    {FirstMeet: 72, AllMet: 72, Meetings: 1, Rounds: 72, NodeRounds: 142},
	"k2/random/flip/s1":      {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/random/flip/s2":      {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/random/flip/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/random/both/s1":      {FirstMeet: 3, AllMet: 3, Meetings: 1, Rounds: 3, NodeRounds: 4},
	"k2/random/both/s2":      {FirstMeet: 65, AllMet: 65, Meetings: 1, Rounds: 65, NodeRounds: 128},
	"k2/random/both/s3":      {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/reactive/none/s1":    {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/reactive/none/s2":    {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/reactive/none/s3":    {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/reactive/static/s1":  {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/reactive/static/s2":  {FirstMeet: 66, AllMet: 66, Meetings: 1, Rounds: 66, NodeRounds: 130},
	"k2/reactive/static/s3":  {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/reactive/flip/s1":    {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/reactive/flip/s2":    {FirstMeet: 390, AllMet: 390, Meetings: 1, Rounds: 390, NodeRounds: 778},
	"k2/reactive/flip/s3":    {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k2/reactive/both/s1":    {FirstMeet: 7, AllMet: 7, Meetings: 1, Rounds: 7, NodeRounds: 12},
	"k2/reactive/both/s2":    {FirstMeet: 390, AllMet: 390, Meetings: 1, Rounds: 390, NodeRounds: 778},
	"k2/reactive/both/s3":    {FirstMeet: 83, AllMet: 83, Meetings: 1, Rounds: 83, NodeRounds: 164},
	"k3/none/none/s1":        {FirstMeet: 3, AllMet: 18, Meetings: 4, Rounds: 18, NodeRounds: 48},
	"k3/none/none/s2":        {FirstMeet: 21, AllMet: 47, Meetings: 2, Rounds: 47, NodeRounds: 135},
	"k3/none/none/s3":        {FirstMeet: 21, AllMet: 72, Meetings: 2, Rounds: 72, NodeRounds: 210},
	"k3/none/static/s1":      {FirstMeet: 3, AllMet: 49, Meetings: 4, Rounds: 49, NodeRounds: 141},
	"k3/none/static/s2":      {FirstMeet: 21, AllMet: 65, Meetings: 3, Rounds: 65, NodeRounds: 189},
	"k3/none/static/s3":      {FirstMeet: 21, AllMet: 72, Meetings: 2, Rounds: 72, NodeRounds: 210},
	"k3/none/flip/s1":        {FirstMeet: 3, AllMet: 18, Meetings: 4, Rounds: 18, NodeRounds: 48},
	"k3/none/flip/s2":        {FirstMeet: 52, AllMet: 66, Meetings: 2, Rounds: 66, NodeRounds: 192},
	"k3/none/flip/s3":        {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/none/both/s1":        {FirstMeet: 3, AllMet: 70, Meetings: 4, Rounds: 70, NodeRounds: 204},
	"k3/none/both/s2":        {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/none/both/s3":        {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/static/none/s1":      {FirstMeet: 7, AllMet: 18, Meetings: 3, Rounds: 18, NodeRounds: 48},
	"k3/static/none/s2":      {FirstMeet: 21, AllMet: 47, Meetings: 2, Rounds: 47, NodeRounds: 135},
	"k3/static/none/s3":      {FirstMeet: 72, AllMet: 75, Meetings: 2, Rounds: 75, NodeRounds: 219},
	"k3/static/static/s1":    {FirstMeet: 7, AllMet: 76, Meetings: 4, Rounds: 76, NodeRounds: 222},
	"k3/static/static/s2":    {FirstMeet: 21, AllMet: 66, Meetings: 3, Rounds: 66, NodeRounds: 192},
	"k3/static/static/s3":    {FirstMeet: 72, AllMet: 75, Meetings: 2, Rounds: 75, NodeRounds: 219},
	"k3/static/flip/s1":      {FirstMeet: 7, AllMet: 18, Meetings: 3, Rounds: 18, NodeRounds: 48},
	"k3/static/flip/s2":      {FirstMeet: 52, AllMet: 66, Meetings: 2, Rounds: 66, NodeRounds: 192},
	"k3/static/flip/s3":      {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/static/both/s1":      {FirstMeet: 7, AllMet: 76, Meetings: 3, Rounds: 76, NodeRounds: 222},
	"k3/static/both/s2":      {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/static/both/s3":      {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/greedy/none/s1":      {FirstMeet: 7, AllMet: 34, Meetings: 2, Rounds: 34, NodeRounds: 96},
	"k3/greedy/none/s2":      {FirstMeet: 21, AllMet: 66, Meetings: 3, Rounds: 66, NodeRounds: 192},
	"k3/greedy/none/s3":      {FirstMeet: 75, AllMet: 83, Meetings: 2, Rounds: 83, NodeRounds: 243},
	"k3/greedy/static/s1":    {FirstMeet: 7, AllMet: 49, Meetings: 2, Rounds: 49, NodeRounds: 141},
	"k3/greedy/static/s2":    {FirstMeet: 21, AllMet: 66, Meetings: 3, Rounds: 66, NodeRounds: 192},
	"k3/greedy/static/s3":    {FirstMeet: 75, AllMet: 83, Meetings: 2, Rounds: 83, NodeRounds: 243},
	"k3/greedy/flip/s1":      {FirstMeet: 7, AllMet: 76, Meetings: 2, Rounds: 76, NodeRounds: 222},
	"k3/greedy/flip/s2":      {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/greedy/flip/s3":      {FirstMeet: 83, AllMet: 90, Meetings: 2, Rounds: 90, NodeRounds: 264},
	"k3/greedy/both/s1":      {FirstMeet: 7, AllMet: 76, Meetings: 2, Rounds: 76, NodeRounds: 222},
	"k3/greedy/both/s2":      {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/greedy/both/s3":      {FirstMeet: 83, AllMet: 90, Meetings: 2, Rounds: 90, NodeRounds: 264},
	"k3/random/none/s1":      {FirstMeet: 3, AllMet: 34, Meetings: 4, Rounds: 34, NodeRounds: 96},
	"k3/random/none/s2":      {FirstMeet: 21, AllMet: 47, Meetings: 2, Rounds: 47, NodeRounds: 135},
	"k3/random/none/s3":      {FirstMeet: 21, AllMet: 72, Meetings: 2, Rounds: 72, NodeRounds: 210},
	"k3/random/static/s1":    {FirstMeet: 3, AllMet: 49, Meetings: 4, Rounds: 49, NodeRounds: 141},
	"k3/random/static/s2":    {FirstMeet: 21, AllMet: 65, Meetings: 3, Rounds: 65, NodeRounds: 189},
	"k3/random/static/s3":    {FirstMeet: 21, AllMet: 72, Meetings: 2, Rounds: 72, NodeRounds: 210},
	"k3/random/flip/s1":      {FirstMeet: 3, AllMet: 76, Meetings: 4, Rounds: 76, NodeRounds: 222},
	"k3/random/flip/s2":      {FirstMeet: 52, AllMet: 66, Meetings: 2, Rounds: 66, NodeRounds: 192},
	"k3/random/flip/s3":      {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/random/both/s1":      {FirstMeet: 3, AllMet: 76, Meetings: 4, Rounds: 76, NodeRounds: 222},
	"k3/random/both/s2":      {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/random/both/s3":      {FirstMeet: 72, AllMet: 90, Meetings: 3, Rounds: 90, NodeRounds: 264},
	"k3/reactive/none/s1":    {FirstMeet: 7, AllMet: 34, Meetings: 2, Rounds: 34, NodeRounds: 96},
	"k3/reactive/none/s2":    {FirstMeet: 21, AllMet: 47, Meetings: 2, Rounds: 47, NodeRounds: 135},
	"k3/reactive/none/s3":    {FirstMeet: 75, AllMet: 83, Meetings: 2, Rounds: 83, NodeRounds: 243},
	"k3/reactive/static/s1":  {FirstMeet: 7, AllMet: 76, Meetings: 3, Rounds: 76, NodeRounds: 222},
	"k3/reactive/static/s2":  {FirstMeet: 21, AllMet: 66, Meetings: 2, Rounds: 66, NodeRounds: 192},
	"k3/reactive/static/s3":  {FirstMeet: 75, AllMet: 83, Meetings: 2, Rounds: 83, NodeRounds: 243},
	"k3/reactive/flip/s1":    {FirstMeet: 7, AllMet: 76, Meetings: 2, Rounds: 76, NodeRounds: 222},
	"k3/reactive/flip/s2":    {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/reactive/flip/s3":    {FirstMeet: 83, AllMet: 90, Meetings: 2, Rounds: 90, NodeRounds: 264},
	"k3/reactive/both/s1":    {FirstMeet: 7, AllMet: 76, Meetings: 2, Rounds: 76, NodeRounds: 222},
	"k3/reactive/both/s2":    {FirstMeet: 66, AllMet: 82, Meetings: 2, Rounds: 82, NodeRounds: 240},
	"k3/reactive/both/s3":    {FirstMeet: 83, AllMet: 90, Meetings: 2, Rounds: 90, NodeRounds: 264},
	"k16/none/none/s1":       {FirstMeet: 3, AllMet: 45, Meetings: 41, Rounds: 45, NodeRounds: 480},
	"k16/none/none/s2":       {FirstMeet: 15, AllMet: 34, Meetings: 22, Rounds: 34, NodeRounds: 304},
	"k16/none/none/s3":       {FirstMeet: 12, AllMet: 36, Meetings: 31, Rounds: 36, NodeRounds: 336},
	"k16/none/static/s1":     {FirstMeet: 3, AllMet: 45, Meetings: 36, Rounds: 45, NodeRounds: 480},
	"k16/none/static/s2":     {FirstMeet: 15, AllMet: 40, Meetings: 27, Rounds: 40, NodeRounds: 400},
	"k16/none/static/s3":     {FirstMeet: 15, AllMet: 36, Meetings: 26, Rounds: 36, NodeRounds: 336},
	"k16/none/flip/s1":       {FirstMeet: 3, AllMet: 64, Meetings: 43, Rounds: 64, NodeRounds: 784},
	"k16/none/flip/s2":       {FirstMeet: 15, AllMet: 44, Meetings: 23, Rounds: 44, NodeRounds: 464},
	"k16/none/flip/s3":       {FirstMeet: 15, AllMet: 68, Meetings: 48, Rounds: 68, NodeRounds: 848},
	"k16/none/both/s1":       {FirstMeet: 3, AllMet: 64, Meetings: 39, Rounds: 64, NodeRounds: 784},
	"k16/none/both/s2":       {FirstMeet: 15, AllMet: 44, Meetings: 21, Rounds: 44, NodeRounds: 464},
	"k16/none/both/s3":       {FirstMeet: 15, AllMet: 68, Meetings: 40, Rounds: 68, NodeRounds: 848},
	"k16/static/none/s1":     {FirstMeet: 7, AllMet: 48, Meetings: 31, Rounds: 48, NodeRounds: 528},
	"k16/static/none/s2":     {FirstMeet: 19, AllMet: 44, Meetings: 30, Rounds: 44, NodeRounds: 464},
	"k16/static/none/s3":     {FirstMeet: 15, AllMet: 37, Meetings: 24, Rounds: 37, NodeRounds: 352},
	"k16/static/static/s1":   {FirstMeet: 7, AllMet: 50, Meetings: 30, Rounds: 50, NodeRounds: 560},
	"k16/static/static/s2":   {FirstMeet: 19, AllMet: 44, Meetings: 26, Rounds: 44, NodeRounds: 464},
	"k16/static/static/s3":   {FirstMeet: 15, AllMet: 47, Meetings: 35, Rounds: 47, NodeRounds: 512},
	"k16/static/flip/s1":     {FirstMeet: 13, AllMet: 76, Meetings: 39, Rounds: 76, NodeRounds: 976},
	"k16/static/flip/s2":     {FirstMeet: 19, AllMet: 45, Meetings: 20, Rounds: 45, NodeRounds: 480},
	"k16/static/flip/s3":     {FirstMeet: 15, AllMet: 68, Meetings: 40, Rounds: 68, NodeRounds: 848},
	"k16/static/both/s1":     {FirstMeet: 13, AllMet: 76, Meetings: 36, Rounds: 76, NodeRounds: 976},
	"k16/static/both/s2":     {FirstMeet: 19, AllMet: 61, Meetings: 23, Rounds: 61, NodeRounds: 736},
	"k16/static/both/s3":     {FirstMeet: 15, AllMet: 68, Meetings: 32, Rounds: 68, NodeRounds: 848},
	"k16/greedy/none/s1":     {FirstMeet: 7, AllMet: 62, Meetings: 37, Rounds: 62, NodeRounds: 752},
	"k16/greedy/none/s2":     {FirstMeet: 15, AllMet: 44, Meetings: 31, Rounds: 44, NodeRounds: 464},
	"k16/greedy/none/s3":     {FirstMeet: 22, AllMet: 62, Meetings: 37, Rounds: 62, NodeRounds: 752},
	"k16/greedy/static/s1":   {FirstMeet: 7, AllMet: 62, Meetings: 30, Rounds: 62, NodeRounds: 752},
	"k16/greedy/static/s2":   {FirstMeet: 15, AllMet: 44, Meetings: 27, Rounds: 44, NodeRounds: 464},
	"k16/greedy/static/s3":   {FirstMeet: 22, AllMet: 62, Meetings: 31, Rounds: 62, NodeRounds: 752},
	"k16/greedy/flip/s1":     {FirstMeet: 21, AllMet: 64, Meetings: 25, Rounds: 64, NodeRounds: 784},
	"k16/greedy/flip/s2":     {FirstMeet: 15, AllMet: 45, Meetings: 19, Rounds: 45, NodeRounds: 480},
	"k16/greedy/flip/s3":     {FirstMeet: 22, AllMet: 86, Meetings: 38, Rounds: 86, NodeRounds: 1136},
	"k16/greedy/both/s1":     {FirstMeet: 21, AllMet: 64, Meetings: 22, Rounds: 64, NodeRounds: 784},
	"k16/greedy/both/s2":     {FirstMeet: 15, AllMet: 49, Meetings: 19, Rounds: 49, NodeRounds: 544},
	"k16/greedy/both/s3":     {FirstMeet: 22, AllMet: 86, Meetings: 32, Rounds: 86, NodeRounds: 1136},
	"k16/random/none/s1":     {FirstMeet: 3, AllMet: 45, Meetings: 29, Rounds: 45, NodeRounds: 480},
	"k16/random/none/s2":     {FirstMeet: 15, AllMet: 45, Meetings: 32, Rounds: 45, NodeRounds: 480},
	"k16/random/none/s3":     {FirstMeet: 12, AllMet: 68, Meetings: 69, Rounds: 68, NodeRounds: 848},
	"k16/random/static/s1":   {FirstMeet: 3, AllMet: 45, Meetings: 25, Rounds: 45, NodeRounds: 480},
	"k16/random/static/s2":   {FirstMeet: 15, AllMet: 45, Meetings: 28, Rounds: 45, NodeRounds: 480},
	"k16/random/static/s3":   {FirstMeet: 19, AllMet: 68, Meetings: 58, Rounds: 68, NodeRounds: 848},
	"k16/random/flip/s1":     {FirstMeet: 3, AllMet: 64, Meetings: 30, Rounds: 64, NodeRounds: 784},
	"k16/random/flip/s2":     {FirstMeet: 15, AllMet: 63, Meetings: 34, Rounds: 63, NodeRounds: 768},
	"k16/random/flip/s3":     {FirstMeet: 18, AllMet: 68, Meetings: 38, Rounds: 68, NodeRounds: 848},
	"k16/random/both/s1":     {FirstMeet: 3, AllMet: 64, Meetings: 27, Rounds: 64, NodeRounds: 784},
	"k16/random/both/s2":     {FirstMeet: 15, AllMet: 63, Meetings: 28, Rounds: 63, NodeRounds: 768},
	"k16/random/both/s3":     {FirstMeet: 21, AllMet: 68, Meetings: 31, Rounds: 68, NodeRounds: 848},
	"k16/reactive/none/s1":   {FirstMeet: 7, AllMet: 49, Meetings: 26, Rounds: 49, NodeRounds: 544},
	"k16/reactive/none/s2":   {FirstMeet: 15, AllMet: 44, Meetings: 25, Rounds: 44, NodeRounds: 464},
	"k16/reactive/none/s3":   {FirstMeet: 18, AllMet: 38, Meetings: 20, Rounds: 38, NodeRounds: 368},
	"k16/reactive/static/s1": {FirstMeet: 7, AllMet: 49, Meetings: 21, Rounds: 49, NodeRounds: 544},
	"k16/reactive/static/s2": {FirstMeet: 15, AllMet: 44, Meetings: 23, Rounds: 44, NodeRounds: 464},
	"k16/reactive/static/s3": {FirstMeet: 19, AllMet: 46, Meetings: 26, Rounds: 46, NodeRounds: 496},
	"k16/reactive/flip/s1":   {FirstMeet: 21, AllMet: 73, Meetings: 34, Rounds: 73, NodeRounds: 928},
	"k16/reactive/flip/s2":   {FirstMeet: 15, AllMet: 63, Meetings: 27, Rounds: 63, NodeRounds: 768},
	"k16/reactive/flip/s3":   {FirstMeet: 18, AllMet: 73, Meetings: 30, Rounds: 73, NodeRounds: 928},
	"k16/reactive/both/s1":   {FirstMeet: 21, AllMet: 73, Meetings: 30, Rounds: 73, NodeRounds: 928},
	"k16/reactive/both/s2":   {FirstMeet: 15, AllMet: 63, Meetings: 24, Rounds: 63, NodeRounds: 768},
	"k16/reactive/both/s3":   {FirstMeet: 22, AllMet: 73, Meetings: 23, Rounds: 73, NodeRounds: 928},
}
