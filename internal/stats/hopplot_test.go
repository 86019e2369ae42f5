package stats

import (
	"fmt"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// referenceHopPlot is the per-source BFS that HopPlotCtx replaced: one
// BFS from every node, counting each node reached at distance h. It is
// kept as the oracle the multi-source kernel must match exactly.
func referenceHopPlot(g *graph.Graph) []int64 {
	n := g.NumNodes()
	var pairsAt []int64 // pairsAt[h] = ordered pairs at distance exactly h
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		grow(&pairsAt, 0)
		pairsAt[0]++
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			for _, w := range g.Neighbors(int(u)) {
				if dist[w] < 0 {
					dist[w] = du + 1
					grow(&pairsAt, int(du+1))
					pairsAt[du+1]++
					queue = append(queue, w)
				}
			}
		}
	}
	out := make([]int64, len(pairsAt))
	var acc int64
	for h, c := range pairsAt {
		acc += c
		out[h] = acc
	}
	return out
}

// mixedGraph has what the batching must get right: isolated nodes
// scattered among the sources, 2-node components, a long path, a dense
// random part, and n not a multiple of 4.
func mixedGraph(n int, seed uint64) *graph.Graph {
	rng := randx.New(seed)
	b := graph.NewBuilder(n)
	third := n / 3
	// A random part on the first third, where every 5th node stays
	// isolated.
	for u := 0; u < third; u++ {
		if u%5 == 0 {
			continue
		}
		for t := 0; t < 3; t++ {
			if v := rng.IntN(third); v != u && v%5 != 0 {
				b.AddEdge(u, v)
			}
		}
	}
	// 2-node components, then a path, on the second third.
	for u := third; u+1 < 2*third; u++ {
		if u < third+third/2 {
			if (u-third)%3 == 0 {
				b.AddEdge(u, u+1)
			}
		} else {
			b.AddEdge(u, u+1)
		}
	}
	// The last third is isolated apart from one edge at the very end.
	b.AddEdge(n-2, n-1)
	return b.Build()
}

func TestHopPlotMatchesPerSourceReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"mixed-203":    mixedGraph(203, 1),
		"mixed-1001":   mixedGraph(1001, 2),
		"stat-601":     statGraph(601, 7),
		"path-70":      graph.Path(70),
		"one-edge":     graph.FromEdges(2, [][2]int{{0, 1}}),
		"edge+isolate": graph.FromEdges(5, [][2]int{{3, 4}}),
		"single":       graph.Empty(1),
		"random-45":    randomGraph(45, 0.08, 3),
	}
	for name, g := range graphs {
		want := referenceHopPlot(g)
		sources := 0
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) > 0 {
				sources++
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/sources=%d/workers=%d", name, sources, workers), func(t *testing.T) {
				got := must(HopPlotCtx(pipeline.New(nil, workers, nil), g))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("hop plot %v, per-source reference %v", got, want)
				}
			})
		}
	}
	// The cases the batching is checked on must be present.
	for _, name := range []string{"mixed-203", "mixed-1001"} {
		g := graphs[name]
		sources, isolated := 0, 0
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) > 0 {
				sources++
			} else {
				isolated++
			}
		}
		if g.NumNodes()%4 == 0 || sources%hopLanes == 0 || isolated == 0 {
			t.Fatalf("%s: n=%d, %d sources, %d isolated: not the intended shape", name, g.NumNodes(), sources, isolated)
		}
	}
}

// TestHopPlotProgress records the hop plot's events: the fractional
// progress between the stage's start and end events rises
// monotonically and reaches 1, with at most ~100 events per call.
func TestHopPlotProgress(t *testing.T) {
	g := mixedGraph(5003, 4)
	sources := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 0 {
			sources++
		}
	}
	if sources <= 100*hopLanes {
		t.Fatalf("%d sources: too few batches to show the rate limit", sources)
	}
	for _, workers := range []int{1, 3} {
		var fracs []float64
		run := pipeline.New(nil, workers, func(e pipeline.Event) {
			if e.Stage == "hop-plot" {
				fracs = append(fracs, e.Frac)
			}
		})
		must(HopPlotCtx(run, g))
		if len(fracs) < 4 || len(fracs) > 102 {
			t.Fatalf("workers=%d: %d hop-plot events, want a few and at most 102", workers, len(fracs))
		}
		if fracs[0] != 0 || fracs[len(fracs)-1] != 1 {
			t.Fatalf("workers=%d: events %v do not run from 0 to 1", workers, fracs)
		}
		progress := fracs[1 : len(fracs)-1] // between the stage's start and end
		for i, f := range progress {
			if f <= 0 || i > 0 && f <= progress[i-1] {
				t.Fatalf("workers=%d: progress %v does not rise", workers, progress)
			}
		}
		if progress[len(progress)-1] != 1 {
			t.Fatalf("workers=%d: progress ends at %v, want 1", workers, progress[len(progress)-1])
		}
	}
}

// TestTrianglesStampWordBoundaries puts triangle corners on the stamp
// set's word boundaries (63, 64, 127, 128 and n−1) and checks the total
// and the per-node counts against brute force for several worker
// counts.
func TestTrianglesStampWordBoundaries(t *testing.T) {
	const n = 130
	edges := [][2]int{}
	clique := func(vs ...int) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, [2]int{vs[i], vs[j]})
			}
		}
	}
	clique(0, 63, 64, n-1)
	clique(63, 64, 127, 128)
	clique(1, 65, n-1)
	clique(62, 63, 128, n-1)
	for v := 2; v < 12; v++ { // a hub at 64 that ranks above the rest
		edges = append(edges, [2]int{64, v})
	}
	g := graph.FromEdges(n, edges)
	want := bruteTriangles(g)
	wantPer := make([]int64, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
					wantPer[u]++
					wantPer[v]++
					wantPer[w]++
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		run := pipeline.New(nil, workers, nil)
		if got := must(TrianglesCtx(run, g)); got != want {
			t.Errorf("workers=%d: %d triangles, brute force %d", workers, got, want)
		}
		if got := must(TrianglesPerNodeCtx(run, g)); fmt.Sprint(got) != fmt.Sprint(wantPer) {
			t.Errorf("workers=%d: per-node %v, brute force %v", workers, got, wantPer)
		}
	}
}
