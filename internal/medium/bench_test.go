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
// resolve every listener, Reset — on two shapes: the multihop relay graph
// (a random geometric graph, n=1024, radius 0.06, F=6, every node awake)
// with 2, 64 and 512 transmitters, and the rendezvous star (16 mutually
// adjacent parties on F=64 and one jam node per channel neighboring every
// party, 24 of them carrying a blocked channel).
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
	b.Run("rendezvous/parties=16/jam=24", func(b *testing.B) {
		const parties, f, jammed = 16, 64, 24
		g := &starGraph{adj: make([][]int, parties+f)}
		all := make([]int, parties)
		for p := range all {
			all[p] = p
		}
		for p := 0; p < parties; p++ {
			for q := 0; q < parties+f; q++ {
				if q != p {
					g.adj[p] = append(g.adj[p], q)
				}
			}
		}
		for j := parties; j < parties+f; j++ {
			g.adj[j] = all
		}
		r := rng.New(7)
		rs := make([]benchRound, rounds)
		for k := range rs {
			rs[k] = benchRound{freq: make([]int, parties+f), tx: make([]bool, parties+f)}
			for p := 0; p < parties; p++ {
				rs[k].freq[p], rs[k].tx[p] = 1+r.Intn(f), r.Bool()
			}
			// Channel c+1's jam node is parties+c.
			for _, c := range r.SampleK(f, jammed) {
				rs[k].freq[parties+c], rs[k].tx[parties+c] = c+1, true
			}
		}
		benchResolve(b, medium.NewResolver(f, g.N(), g), rs)
	})
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

// starGraph is the rendezvous shape's explicit adjacency.
type starGraph struct {
	adj [][]int
}

func (g *starGraph) N() int                { return len(g.adj) }
func (g *starGraph) Neighbors(i int) []int { return g.adj[i] }
