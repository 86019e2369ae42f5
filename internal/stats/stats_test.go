package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dpkron/internal/graph"
)

func randomGraph(n int, p float64, seed uint64) *graph.Graph {
	r := rand.New(rand.NewPCG(seed, seed*2654435761+1))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// --- brute-force oracles ---

func bruteTriangles(g *graph.Graph) int64 {
	n := g.NumNodes()
	var t int64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
					t++
				}
			}
		}
	}
	return t
}

func bruteWedges(g *graph.Graph) int64 {
	n := g.NumNodes()
	var h int64
	for c := 0; c < n; c++ { // centre
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u != c && v != c && g.HasEdge(c, u) && g.HasEdge(c, v) {
					h++
				}
			}
		}
	}
	return h
}

func bruteTripins(g *graph.Graph) int64 {
	n := g.NumNodes()
	var t int64
	for c := 0; c < n; c++ {
		d := int64(g.Degree(c))
		t += d * (d - 1) * (d - 2) / 6
	}
	return t
}

func bruteHopPlot(g *graph.Graph) []int64 {
	n := g.NumNodes()
	const inf = 1 << 30
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else if g.HasEdge(i, j) {
				d[i][j] = 1
			} else {
				d[i][j] = inf
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	maxd := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d[i][j] < inf && d[i][j] > maxd {
				maxd = d[i][j]
			}
		}
	}
	out := make([]int64, maxd+1)
	for h := 0; h <= maxd; h++ {
		var c int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][j] <= h {
					c++
				}
			}
		}
		out[h] = c
	}
	return out
}

// --- tests ---

func TestTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int64
	}{
		{graph.Complete(4), 4},
		{graph.Complete(5), 10},
		{graph.Complete(6), 20},
		{graph.Cycle(5), 0},
		{graph.Cycle(3), 1},
		{graph.Star(10), 0},
		{graph.Path(6), 0},
		{graph.Empty(7), 0},
	}
	for i, c := range cases {
		if got := must(TrianglesCtx(nil, c.g)); got != c.want {
			t.Errorf("case %d: Triangles = %d, want %d", i, got, c.want)
		}
	}
}

func TestTrianglesVsBrute(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(25, 0.3, seed)
		if got, want := must(TrianglesCtx(nil, g)), bruteTriangles(g); got != want {
			t.Fatalf("seed %d: Triangles = %d, brute = %d", seed, got, want)
		}
	}
}

func TestWedgesVsBrute(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(20, 0.3, seed)
		if got, want := must(WedgesCtx(nil, g)), bruteWedges(g); got != want {
			t.Fatalf("seed %d: Wedges = %d, brute = %d", seed, got, want)
		}
	}
}

func TestTripinsVsBrute(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(20, 0.4, seed)
		if got, want := must(TripinsCtx(nil, g)), bruteTripins(g); got != want {
			t.Fatalf("seed %d: Tripins = %d, brute = %d", seed, got, want)
		}
	}
}

func TestTrianglesPerNodeSum(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(30, 0.25, seed)
		per := must(TrianglesPerNodeCtx(nil, g))
		var sum int64
		for _, c := range per {
			sum += c
		}
		if sum != 3*must(TrianglesCtx(nil, g)) {
			t.Fatalf("seed %d: per-node sum %d != 3*total %d", seed, sum, 3*must(TrianglesCtx(nil, g)))
		}
	}
}

func TestTrianglesPerNodeK4(t *testing.T) {
	per := must(TrianglesPerNodeCtx(nil, graph.Complete(4)))
	for v, c := range per {
		if c != 3 {
			t.Fatalf("K4 node %d participates in %d triangles, want 3", v, c)
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {1, 4}})
	if got := CommonNeighbors(g, 0, 1); got != 2 {
		t.Fatalf("CommonNeighbors(0,1) = %d, want 2", got)
	}
	if got := CommonNeighbors(g, 2, 3); got != 2 {
		t.Fatalf("CommonNeighbors(2,3) = %d, want 2", got)
	}
	if got := CommonNeighbors(g, 0, 4); got != 0 {
		t.Fatalf("CommonNeighbors(0,4) = %d, want 0", got)
	}
	if got := CommonNeighbors(g, 2, 4); got != 1 {
		t.Fatalf("CommonNeighbors(2,4) = %d, want 1", got)
	}
}

func TestLocalClusteringTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	cc := must(LocalClusteringCtx(nil, g))
	want := []float64{1.0 / 3, 1, 1, 0}
	for v := range want {
		if math.Abs(cc[v]-want[v]) > 1e-12 {
			t.Fatalf("cc[%d] = %v, want %v", v, cc[v], want[v])
		}
	}
}

func TestGlobalClustering(t *testing.T) {
	if got := GlobalClustering(must(FeaturesOfCtx(nil, graph.Complete(5)))); math.Abs(got-1) > 1e-12 {
		t.Fatalf("K5 transitivity = %v, want 1", got)
	}
	if got := GlobalClustering(must(FeaturesOfCtx(nil, graph.Star(6)))); got != 0 {
		t.Fatalf("star transitivity = %v, want 0", got)
	}
	if got := GlobalClustering(must(FeaturesOfCtx(nil, graph.Empty(4)))); got != 0 {
		t.Fatalf("empty transitivity = %v, want 0", got)
	}
}

func TestFeaturesOfMatchesParts(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	f := must(FeaturesOfCtx(nil, g))
	if f.E != float64(g.NumEdges()) || f.H != float64(must(WedgesCtx(nil, g))) ||
		f.T != float64(must(TripinsCtx(nil, g))) || f.Delta != float64(must(TrianglesCtx(nil, g))) {
		t.Fatal("FeaturesOf disagrees with individual counters")
	}
}

func TestFeaturesFromDegreesMatchesExactOnIntegers(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(40, 0.15, seed)
		d := g.Degrees()
		df := make([]float64, len(d))
		for i, x := range d {
			df[i] = float64(x)
		}
		f := FeaturesFromDegrees(df)
		if math.Abs(f.E-float64(g.NumEdges())) > 1e-9 {
			t.Fatalf("E mismatch: %v vs %d", f.E, g.NumEdges())
		}
		if math.Abs(f.H-float64(must(WedgesCtx(nil, g)))) > 1e-9 {
			t.Fatalf("H mismatch: %v vs %d", f.H, must(WedgesCtx(nil, g)))
		}
		if math.Abs(f.T-float64(must(TripinsCtx(nil, g)))) > 1e-9 {
			t.Fatalf("T mismatch: %v vs %d", f.T, must(TripinsCtx(nil, g)))
		}
	}
}

func TestDegreeDistribution(t *testing.T) {
	g := graph.Star(5) // one node of degree 4, four of degree 1
	dd := DegreeDistribution(g)
	if len(dd) != 2 || dd[0].Degree != 1 || dd[0].Value != 4 || dd[1].Degree != 4 || dd[1].Value != 1 {
		t.Fatalf("DegreeDistribution(star) = %+v", dd)
	}
}

func TestClusteringByDegree(t *testing.T) {
	// Triangle + pendant: degrees are 3 (node 0), 2, 2, 1.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	pts := must(ClusteringByDegreeCtx(nil, g))
	byDeg := map[int]DegreePoint{}
	for _, p := range pts {
		byDeg[p.Degree] = p
	}
	if p := byDeg[2]; p.Count != 2 || math.Abs(p.Value-1) > 1e-12 {
		t.Fatalf("degree-2 point = %+v", p)
	}
	if p := byDeg[3]; p.Count != 1 || math.Abs(p.Value-1.0/3) > 1e-12 {
		t.Fatalf("degree-3 point = %+v", p)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	labels, sizes := ConnectedComponents(g)
	if len(sizes) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("components = %d, want 4 (sizes %v)", len(sizes), sizes)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("nodes 0,1,2 not in one component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("nodes 3,4 mislabelled")
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 7 {
		t.Fatalf("component sizes sum to %d, want 7", total)
	}
}

func TestHopPlotPath(t *testing.T) {
	g := graph.Path(4)
	hop := must(HopPlotCtx(nil, g))
	// Distances on a path of 4: pairs at distance 0:4, 1:6, 2:4, 3:2 (ordered).
	want := []int64{4, 10, 14, 16}
	if len(hop) != len(want) {
		t.Fatalf("hop plot = %v, want %v", hop, want)
	}
	for i := range want {
		if hop[i] != want[i] {
			t.Fatalf("hop plot = %v, want %v", hop, want)
		}
	}
}

func TestHopPlotVsBrute(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(18, 0.2, seed)
		got, want := must(HopPlotCtx(nil, g)), bruteHopPlot(g)
		if len(got) != len(want) {
			t.Fatalf("seed %d: hop %v vs brute %v", seed, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: hop %v vs brute %v", seed, got, want)
			}
		}
	}
}

func TestHopPlotDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}}) // two isolated nodes
	hop := must(HopPlotCtx(nil, g))
	if hop[0] != 4 {
		t.Fatalf("hop[0] = %d, want 4", hop[0])
	}
	if hop[len(hop)-1] != 6 { // 4 self + 2 ordered pairs of the edge
		t.Fatalf("hop final = %d, want 6", hop[len(hop)-1])
	}
}

func TestEffectiveDiameter(t *testing.T) {
	hop := []int64{4, 10, 14, 16}
	d := EffectiveDiameter(hop, 0.9)
	// target = 14.4, between h=2 (14) and h=3 (16) -> 2 + 0.4/2 = 2.2
	if math.Abs(d-2.2) > 1e-12 {
		t.Fatalf("EffectiveDiameter = %v, want 2.2", d)
	}
	if EffectiveDiameter(nil, 0.9) != 0 {
		t.Fatal("empty hop plot should give 0")
	}
}

func TestQuickTriangleInvariantUnderRelabel(t *testing.T) {
	// Triangle count is invariant under node relabelling.
	f := func(seed uint64) bool {
		g := randomGraph(16, 0.3, seed%1000)
		perm := rand.New(rand.NewPCG(seed, 99)).Perm(16)
		b := graph.NewBuilder(16)
		g.ForEachEdge(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
		return must(TrianglesCtx(nil, g)) == must(TrianglesCtx(nil, b.Build()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickHopPlotMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(20, 0.15, seed%1000)
		hop := must(HopPlotCtx(nil, g))
		for i := 1; i < len(hop); i++ {
			if hop[i] < hop[i-1] {
				return false
			}
		}
		n := int64(g.NumNodes())
		return len(hop) > 0 && hop[0] == n && hop[len(hop)-1] <= n*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
