package medium

import (
	"testing"
)

// FuzzResolverReceive drives the resolver through fuzz-chosen topologies
// and multi-round transmit/listen/reset sequences and checks every
// listener's reception on its own frequency against a naive per-receiver
// scan oracle. It is the resolver's differential anchor: the
// transmitter-side push, the complete-graph fast path, SetGraph swaps
// between rounds, and the touched-only Reset bookkeeping must agree with
// the oracle on every input.
//
// Input layout (all quantities reduced modulo their range, so every byte
// string is valid):
//
//	byte 0       node count n in [1..8]
//	byte 1       frequency count F in [1..8]
//	byte 2       topology mode, modulo 4:
//	               0 = complete graph (nil Graph) throughout
//	               1 = graph A throughout
//	               2 = graph A and the complete graph, alternating per round
//	               3 = graphs A and B, alternating per round
//	adjacency    n(n−1)/2 bits for the i<j pairs of graph A (modes 1–3),
//	             then as many for graph B (mode 3)
//	rounds       n bytes per round, one per node: 0 = asleep,
//	             odd b = listen on 1+(b/2)%F, even b = transmit on
//	             1+(b/2−1)%F
//
// Each decoded round registers actions in ascending node order (the
// resolver's contract), checks receptions, then Resets — or, in the
// alternating modes, swaps the next graph in with SetGraph, which must
// reset on its own — so later rounds also verify that exactly the dirtied
// state was cleared.
func FuzzResolverReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 4, 0, 1, 2, 3, 0, 7})
	f.Add([]byte{3, 2, 1, 0b011, 2, 1, 1})
	f.Add(fuzzSeedStar())
	f.Add(fuzzSeedCollisions())
	f.Add(fuzzSeedMultiRound())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0]%8)
		freqs := 1 + int(data[1]%8)
		mode := data[2] % 4
		data = data[3:]

		// decodeGraph consumes one adjacency block from data.
		decodeGraph := func() [][]int {
			adj := make([][]int, n)
			bit := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					var b byte
					if bit/8 < len(data) {
						b = data[bit/8]
					}
					if b>>(uint(bit)%8)&1 == 1 {
						adj[i] = append(adj[i], j)
						adj[j] = append(adj[j], i)
					}
					bit++
				}
			}
			data = data[min((bit+7)/8, len(data)):]
			return adj
		}
		// adjs lists the topologies the rounds cycle through; nil is the
		// complete graph.
		var adjs [][][]int
		switch mode {
		case 0:
			adjs = [][][]int{nil}
		case 1:
			adjs = [][][]int{decodeGraph()}
		case 2:
			adjs = [][][]int{decodeGraph(), nil}
		case 3:
			a := decodeGraph()
			adjs = [][][]int{a, decodeGraph()}
		}
		graphOf := func(adj [][]int) Graph {
			if adj == nil {
				return nil
			}
			return &testGraph{adj: adj}
		}

		r := NewResolver(freqs, n, graphOf(adjs[0]))
		listenOn := make([]int, n) // 0 = not listening
		txOn := make([]int, n)     // 0 = not transmitting
		for round := 0; len(data) >= n; round++ {
			adj := adjs[round%len(adjs)]
			acts := data[:n]
			data = data[n:]
			for i, b := range acts {
				listenOn[i], txOn[i] = 0, 0
				switch {
				case b == 0:
				case b%2 == 1:
					listenOn[i] = 1 + int(b/2)%freqs
					r.Listen(i, listenOn[i])
				default:
					txOn[i] = 1 + int(b/2-1)%freqs
					r.Transmit(i, txOn[i])
				}
			}

			// TouchedAscending must list exactly the transmitted-on
			// frequencies, ascending.
			touched := r.TouchedAscending()
			seen := make(map[int]bool)
			for _, q := range touched {
				seen[q] = true
			}
			for i, q := range touched {
				if i > 0 && touched[i-1] >= q {
					t.Fatalf("touched not strictly ascending: %v", touched)
				}
			}
			for q := 1; q <= freqs; q++ {
				want := 0
				for i := 0; i < n; i++ {
					if txOn[i] == q {
						want++
					}
				}
				if seen[q] != (want > 0) {
					t.Fatalf("touched/%d mismatch: touched=%v want count %d", q, touched, want)
				}
				if got := r.Count(q); got != want {
					t.Fatalf("Count(%d) = %d, oracle %d", q, got, want)
				}
			}

			// Every listener, on its own frequency, against the scan
			// oracle.
			for u, q := range listenOn {
				if q == 0 {
					continue
				}
				gotFrom, gotCount := r.Receive(u, q)
				wantFrom, wantCount := oracleReceive(u, q, n, adj, txOn)
				if gotCount != wantCount {
					t.Fatalf("round %d: Receive(%d,%d) count = %d, oracle %d (n=%d F=%d mode=%d tx=%v adj=%v)",
						round, u, q, gotCount, wantCount, n, freqs, mode, txOn, adj)
				}
				if wantCount <= 1 && gotFrom != wantFrom {
					t.Fatalf("round %d: Receive(%d,%d) from = %d, oracle %d (tx=%v adj=%v)",
						round, u, q, gotFrom, wantFrom, txOn, adj)
				}
			}
			if len(adjs) > 1 {
				r.SetGraph(graphOf(adjs[(round+1)%len(adjs)]))
			} else {
				r.Reset()
			}
		}
	})
}

// oracleReceive is the naive per-receiver scan: walk every node, count the
// ones transmitting on q that u can hear (everyone on the complete graph,
// adj == nil; u's own adjacency list otherwise), saturating at 2; from is
// the unique transmitter when the count is 1.
func oracleReceive(u, q, n int, adj [][]int, txOn []int) (from, count int) {
	from = -1
	hears := func(w int) bool {
		if adj == nil {
			return true
		}
		for _, x := range adj[u] {
			if x == w {
				return true
			}
		}
		return false
	}
	for w := 0; w < n; w++ {
		if txOn[w] != q || !hears(w) {
			continue
		}
		from = w
		if count++; count >= 2 {
			return from, 2
		}
	}
	return from, count
}

// fuzzSeedStar encodes a star graph (hub 0 of 1..4): two leaves push to
// the listening hub, and a listening leaf hears nothing from the other
// leaves.
func fuzzSeedStar() []byte {
	// n=5, F=3 (bytes n−1, F−1), graph mode; adjacency bits for pairs
	// (0,1)(0,2)(0,3)(0,4)(1,2)(1,3)(1,4)(2,3)(2,4)(3,4): star = first
	// four bits set.
	return []byte{4, 2, 1, 0b00001111, 0b00,
		1, 2, 2, 1, 0, // hub listens, leaves 1-2 transmit on 1, leaf 3 listens
		1, 1, 1, 1, 1, // everyone listens on 1 (silence)
	}
}

// fuzzSeedCollisions encodes a complete-graph round with a three-way
// collision and a clean singleton on another frequency.
func fuzzSeedCollisions() []byte {
	return []byte{3, 3, 0, // n=4, F=4
		2, 2, 2, 1, // nodes 0-2 collide on frequency 1, node 3 listens
		4, 3, 3, 1, // node 0 alone on frequency 2, nodes 1-2 listen there, node 3 on 1
	}
}

// fuzzSeedMultiRound exercises Reset: a busy round followed by a sparse
// one on different frequencies.
func fuzzSeedMultiRound() []byte {
	return []byte{5, 4, 1, 0b10110101, 0b1101010, // n=6, F=5
		2, 3, 4, 5, 6, 1,
		1, 1, 0, 0, 2, 1,
		6, 1, 6, 1, 6, 1,
	}
}
