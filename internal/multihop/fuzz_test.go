package multihop

import (
	"sort"
	"testing"
)

// FuzzGraphDelta drives the incremental topology mutation API with
// arbitrary insert/delete streams and cross-checks every step against a
// naive set-based oracle: return values must match oracle membership, the
// adjacency must stay symmetric after every step (the medium resolver's
// requirement), and the final adjacency must be sorted and exactly the
// oracle's edge set through HasEdge, EdgeCount, AppendEdges, and Clone.
func FuzzGraphDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2})
	// n=4: insert (0,1), delete (0,1), re-insert (0,1).
	f.Add([]byte{4, 0, 0, 1, 1, 0, 1, 0, 0, 1})
	// n=3: duplicate inserts and a delete of an absent edge.
	f.Add([]byte{3, 0, 1, 2, 0, 1, 2, 1, 0, 2})
	// n=16: a longer mixed stream touching high indices.
	f.Add([]byte{16, 0, 14, 15, 0, 0, 15, 0, 7, 8, 1, 0, 15, 0, 15, 7, 1, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0]%15)
		data = data[1:]
		topo := NewTopologyFromEdges(n, nil)
		oracle := make(map[[2]int]bool)
		for len(data) >= 3 {
			del := data[0]%2 == 1
			a, b := int(data[1])%n, int(data[2])%n
			data = data[3:]
			if a == b {
				b = (a + 1) % n // self-loops are a documented panic, not a fuzz target
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			key := [2]int{lo, hi}
			if del {
				if got, want := topo.DeleteEdge(a, b), oracle[key]; got != want {
					t.Fatalf("DeleteEdge(%d, %d) = %v, oracle has edge: %v", a, b, got, want)
				}
				delete(oracle, key)
			} else {
				if got, want := topo.InsertEdge(a, b), !oracle[key]; got != want {
					t.Fatalf("InsertEdge(%d, %d) = %v, oracle lacks edge: %v", a, b, got, want)
				}
				oracle[key] = true
			}
			if err := asymmetry(topo); err != nil {
				t.Fatalf("after edge (%d, %d) step, delete=%v: %v", a, b, del, err)
			}
		}
		for _, g := range []*Topology{topo, topo.Clone()} {
			if got := g.EdgeCount(); got != len(oracle) {
				t.Fatalf("EdgeCount = %d, oracle has %d", got, len(oracle))
			}
			degSum := 0
			for i := 0; i < n; i++ {
				nbrs := g.Neighbors(i)
				degSum += len(nbrs)
				if !sort.IntsAreSorted(nbrs) {
					t.Fatalf("node %d adjacency not sorted: %v", i, nbrs)
				}
				for _, j := range nbrs {
					if !g.HasEdge(j, i) {
						t.Fatalf("edge (%d, %d) present but not symmetric", i, j)
					}
				}
			}
			if degSum != 2*len(oracle) {
				t.Fatalf("degree sum %d, want %d", degSum, 2*len(oracle))
			}
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if got, want := g.HasEdge(a, b), oracle[[2]int{a, b}]; got != want {
						t.Fatalf("HasEdge(%d, %d) = %v, oracle: %v", a, b, got, want)
					}
				}
			}
			edges := g.AppendEdges(nil)
			for i := 1; i < len(edges); i++ {
				if e, p := edges[i], edges[i-1]; p.A > e.A || (p.A == e.A && p.B >= e.B) {
					t.Fatalf("AppendEdges not strictly ascending at %d: %v then %v", i, p, e)
				}
			}
		}
	})
}
