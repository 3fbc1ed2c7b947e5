package medium_test

import (
	"fmt"
	"testing"

	"wsync/internal/medium"
	"wsync/internal/multihop"
	"wsync/internal/rng"
)

// benchRound is one pre-drawn round of activity: each node's frequency
// and whether it transmits.
type benchRound struct {
	freq []int
	tx   []bool
}

// BenchmarkResolverGraph times one graph round — register every node,
// resolve every listener, Reset — on the multihop relay graph (a random
// geometric graph, n=1024, radius 0.06, F=6, every node awake) with 2, 64
// and 512 transmitters.
func BenchmarkResolverGraph(b *testing.B) {
	const rounds = 64
	rgg := multihop.RandomGeometric(1024, 0.06, 1)
	for _, transmitters := range []int{2, 64, 512} {
		b.Run(fmt.Sprintf("relay/n=1024/tx=%d", transmitters), func(b *testing.B) {
			r := rng.New(uint64(transmitters))
			rs := make([]benchRound, rounds)
			for k := range rs {
				rs[k] = benchRound{freq: make([]int, rgg.N()), tx: make([]bool, rgg.N())}
				for _, i := range r.SampleK(rgg.N(), transmitters) {
					rs[k].tx[i] = true
				}
				for i := range rs[k].freq {
					rs[k].freq[i] = 1 + r.Intn(6)
				}
			}
			benchResolve(b, medium.NewResolver(6, rgg.N(), rgg), rs)
		})
	}
}

// benchResolve plays the pre-drawn rounds in a loop, registering nodes
// with a nonzero frequency in ascending order.
func benchResolve(b *testing.B, res *medium.Resolver, rs []benchRound) {
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		rd := rs[it%len(rs)]
		for i, f := range rd.freq {
			switch {
			case f == 0:
			case rd.tx[i]:
				res.Transmit(i, f)
			default:
				res.Listen(i, f)
			}
		}
		for _, u := range res.Listeners() {
			if _, count := res.Receive(u, rd.freq[u]); count == 1 {
				benchHeard++
			}
		}
		res.Reset()
	}
}

// benchHeard keeps the compiler from discarding Receive's results.
var benchHeard int
