package stats_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// relabelByDegree returns g with its nodes renumbered in ascending
// degree order (hubs take the highest ids) or, if hubsLow, descending
// (hubs take the lowest ids); ties keep their relative order.
func relabelByDegree(g *graph.Graph, hubsLow bool) *graph.Graph {
	n := g.NumNodes()
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if hubsLow {
			return cmp.Compare(g.Degree(b), g.Degree(a))
		}
		return cmp.Compare(g.Degree(a), g.Degree(b))
	})
	id := make([]int, n)
	for i, v := range order {
		id[v] = i
	}
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = [2]int{id[e[0]], id[e[1]]}
	}
	return graph.FromEdges(n, edges)
}

// brutePerNode counts, for every node, the adjacent pairs among its
// neighbours.
func brutePerNode(g *graph.Graph) []int64 {
	per := make([]int64, g.NumNodes())
	for v := range per {
		nv := g.Neighbors(v)
		for i, a := range nv {
			for _, b := range nv[i+1:] {
				if g.HasEdge(int(a), int(b)) {
					per[v]++
				}
			}
		}
	}
	return per
}

// TestTrianglesWindowHubRelabel: the window-bounded scan stops each
// walk of N(u) at the first id ≥ u, so its exactness depends on where
// the hubs sit in the id order. Relabelled so that the hubs take the
// highest ids, and so that they take the lowest, an SKG sample's total
// and per-node counts match brute force at 1, 2 and 4 workers.
func TestTrianglesWindowHubRelabel(t *testing.T) {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, K: 11}
	g, err := m.SampleExactCtx(nil, randx.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, hubsLow := range []bool{false, true} {
		h := relabelByDegree(g, hubsLow)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		want := brutePerNode(h)
		var sum int64
		for _, c := range want {
			sum += c
		}
		if sum == 0 {
			t.Fatal("sample has no triangles")
		}
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("hubsLow=%v workers=%d", hubsLow, workers)
			run := pipeline.New(nil, workers, nil)
			total, err := stats.TrianglesCtx(run, h)
			if err != nil {
				t.Fatal(err)
			}
			if total != sum/3 {
				t.Errorf("%s: Triangles = %d, brute %d", name, total, sum/3)
			}
			per, err := stats.TrianglesPerNodeCtx(run, h)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(per, want) {
				t.Errorf("%s: TrianglesPerNode differs from brute force", name)
			}
		}
	}
}
