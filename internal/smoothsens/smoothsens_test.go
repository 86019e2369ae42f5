package smoothsens

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

func randomGraph(n int, p float64, seed uint64) *graph.Graph {
	r := rand.New(rand.NewPCG(seed, seed+5))
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

func bruteMaxCommon(g *graph.Graph) int {
	best, _, _ := bruteArgMaxCommon(g)
	return best
}

// bruteArgMaxCommon returns LS(G) and the first pair u < v attaining it
// (u = v = 0 on fewer than two nodes), by intersecting the sorted
// neighbour lists of every pair.
func bruteArgMaxCommon(g *graph.Graph) (best, bu, bv int) {
	n := g.NumNodes()
	best, bu, bv = -1, 0, 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if c := stats.CommonNeighbors(g, u, v); c > best {
				best, bu, bv = c, u, v
			}
		}
	}
	return max(best, 0), bu, bv
}

// bruteTrianglesPerNode counts, for every node u, the pairs of its
// neighbours that are adjacent.
func bruteTrianglesPerNode(g *graph.Graph) []int64 {
	per := make([]int64, g.NumNodes())
	for u := range per {
		nu := g.Neighbors(u)
		for i, v := range nu {
			for _, w := range nu[i+1:] {
				if g.HasEdge(int(v), int(w)) {
					per[u]++
				}
			}
		}
	}
	return per
}

func bruteSmooth(g *graph.Graph, beta float64) float64 {
	n := g.NumNodes()
	if n < 3 {
		return 0
	}
	C := bruteMaxCommon(g)
	best := 0.0
	// Past s = n the min() is capped and e^{-βs} only shrinks, but scan
	// generously to be safe against small β.
	limit := n + int(3/beta) + 10
	for s := 0; s <= limit; s++ {
		v := math.Min(float64(C+s), float64(n-2))
		if got := math.Exp(-beta*float64(s)) * v; got > best {
			best = got
		}
	}
	return best
}

func TestMaxCommonNeighborsKnown(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{graph.Complete(6), 4}, // any pair shares the other 4
		{graph.Star(8), 1},     // two leaves share the centre
		{graph.Cycle(5), 1},    // adjacent-at-distance-2 share 1
		{graph.Path(5), 1},
		{graph.Empty(5), 0},
		{graph.FromEdges(2, [][2]int{{0, 1}}), 0},
	}
	for i, c := range cases {
		if got := must(MaxCommonNeighborsCtx(nil, c.g)); got != c.want {
			t.Errorf("case %d: MaxCommonNeighbors = %d, want %d", i, got, c.want)
		}
	}
}

func TestMaxCommonNeighborsVsBrute(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := randomGraph(22, 0.25, seed)
		if got, want := must(MaxCommonNeighborsCtx(nil, g)), bruteMaxCommon(g); got != want {
			t.Fatalf("seed %d: got %d, brute %d", seed, got, want)
		}
	}
}

// circulant returns the 2r-regular graph joining each node i of Z_n to
// i±1, …, i±r, plus, if diam, the (2r+1)-th neighbour i+n/2 (n even).
func circulant(n, r int, diam bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 1; j <= r; j++ {
			b.AddEdge(i, (i+j)%n)
		}
		if diam {
			b.AddEdge(i, (i+n/2)%n)
		}
	}
	return b.Build()
}

// hubPlus returns a star of leaves leaves centred on node 0 beside a
// disjoint graph h: the hub has the top degree, so the scan's seed is
// the star's LS of 1, while the true LS lies in h.
func hubPlus(leaves int, h *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(1 + leaves + h.NumNodes())
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v)
	}
	h.ForEachEdge(func(u, v int) { b.AddEdge(1+leaves+u, 1+leaves+v) })
	return b.Build()
}

// pruningCases are the graphs on which a wrong degree bound, tie-break
// or early exit would show: a hub whose best pair is not the maximum,
// the bound min(d_u, d_v) met with equality, all-tied degrees (where
// the early exit never fires), tiny and complete graphs, and Kronecker
// samples, each also with the edge between a maximizing pair toggled.
func pruningCases() map[string]*graph.Graph {
	// K_{2,5}: nodes 0 and 1 share all five of their neighbours.
	k25 := graph.NewBuilder(7)
	for w := 2; w < 7; w++ {
		k25.AddEdge(0, w)
		k25.AddEdge(1, w)
	}
	cases := map[string]*graph.Graph{
		"star200+K6":   hubPlus(200, graph.Complete(6)),
		"star100+K2,5": hubPlus(100, k25.Build()),
		"cycle5":       graph.Cycle(5),
		"cycle12":      graph.Cycle(12),
		"4-regular20":  circulant(20, 2, false),
		"7-regular30":  circulant(30, 3, true),
		"K3,3":         circulant(6, 1, true),
		"path6":        graph.Path(6),
		"empty0":       graph.Empty(0),
		"empty1":       graph.Empty(1),
		"empty2":       graph.Empty(2),
		"edge2":        graph.Complete(2),
		"empty9":       graph.Empty(9),
	}
	for n := 3; n <= 8; n++ {
		cases[fmt.Sprintf("complete%d", n)] = graph.Complete(n)
	}
	for k := 8; k <= 10; k++ {
		for i, init := range []skg.Initiator{{A: 0.99, B: 0.45, C: 0.25}, {A: 0.9, B: 0.7, C: 0.4}} {
			m := skg.Model{Init: init, K: k}
			cases[fmt.Sprintf("kron%d-%d", k, i)] = must(m.SampleExactCtx(nil, randx.New(uint64(10*k+i))))
		}
	}
	toggled := map[string]*graph.Graph{}
	for name, g := range cases {
		if g.NumNodes() >= 2 {
			_, u, v := bruteArgMaxCommon(g)
			toggled[name+"/toggled"] = g.WithEdgeToggled(u, v)
		}
	}
	maps.Copy(cases, toggled)
	return cases
}

// TestMaxCommonNeighborsAndTrianglesVsBrute: both halves of the
// triangle release are exact on every pruning case and worker count. A
// pruned scan that under-reports LS would under-calibrate the noise.
func TestMaxCommonNeighborsAndTrianglesVsBrute(t *testing.T) {
	for name, g := range pruningCases() {
		wantLS := bruteMaxCommon(g)
		wantPer := bruteTrianglesPerNode(g)
		var sum int64
		for _, c := range wantPer {
			sum += c
		}
		for _, workers := range []int{1, 2, 3, 8} {
			run := pipeline.New(nil, workers, nil)
			if got := must(MaxCommonNeighborsCtx(run, g)); got != wantLS {
				t.Errorf("%s workers=%d: MaxCommonNeighbors = %d, brute %d", name, workers, got, wantLS)
			}
			if got := must(stats.TrianglesCtx(run, g)); got != sum/3 {
				t.Errorf("%s workers=%d: Triangles = %d, brute %d", name, workers, got, sum/3)
			}
			if got := must(stats.TrianglesPerNodeCtx(run, g)); !slices.Equal(got, wantPer) {
				t.Errorf("%s workers=%d: TrianglesPerNode = %v, brute %v", name, workers, got, wantPer)
			}
		}
	}
}

func TestSmoothVsExhaustiveScan(t *testing.T) {
	betas := []float64{0.01, 0.05, 0.2, 1, 3}
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(18, 0.2, seed)
		for _, beta := range betas {
			got := must(SmoothCtx(nil, g, beta))
			want := bruteSmooth(g, beta)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("seed %d beta %v: Smooth = %v, scan = %v", seed, beta, got, want)
			}
		}
	}
}

func TestSmoothAtLeastLocal(t *testing.T) {
	f := func(seed uint64, bRaw uint16) bool {
		g := randomGraph(16, 0.3, seed%500)
		beta := 0.01 + float64(bRaw)/65535*2
		return must(SmoothCtx(nil, g, beta)) >= float64(must(MaxCommonNeighborsCtx(nil, g)))-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The defining smoothness property: SS(G) <= e^β · SS(G') for any edge
// neighbour G' of G.
func TestSmoothnessPropertyOnNeighbors(t *testing.T) {
	rng := randx.New(31)
	for trial := 0; trial < 80; trial++ {
		g := randomGraph(14, 0.3, uint64(trial))
		u, v := rng.IntN(14), rng.IntN(14)
		if u == v {
			continue
		}
		h := g.WithEdgeToggled(u, v)
		for _, beta := range []float64{0.05, 0.3, 1} {
			sg, sh := must(SmoothCtx(nil, g, beta)), must(SmoothCtx(nil, h, beta))
			if sg > math.Exp(beta)*sh+1e-9 {
				t.Fatalf("trial %d beta %v: SS(G)=%v > e^b*SS(G')=%v", trial, beta, sg, math.Exp(beta)*sh)
			}
			if sh > math.Exp(beta)*sg+1e-9 {
				t.Fatalf("trial %d beta %v: SS(G')=%v > e^b*SS(G)=%v", trial, beta, sh, math.Exp(beta)*sg)
			}
		}
	}
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestSensitivityAtDistance(t *testing.T) {
	g := graph.Star(10) // C = 1, n = 10
	ls, n := must(MaxCommonNeighborsCtx(nil, g)), g.NumNodes()
	if got := SensitivityAtDistance(ls, n, 0); got != 1 {
		t.Fatalf("A^(0) = %v, want 1", got)
	}
	if got := SensitivityAtDistance(ls, n, 3); got != 4 {
		t.Fatalf("A^(3) = %v, want 4", got)
	}
	if got := SensitivityAtDistance(ls, n, 100); got != 8 { // capped at n-2
		t.Fatalf("A^(100) = %v, want 8", got)
	}
}

func TestLocalSensitivityIsTriangleChange(t *testing.T) {
	// Toggling any single edge changes the triangle count by at most
	// LS(G)... but LS is a max over *all* pairs, so compare against the
	// actual per-toggle change.
	for seed := uint64(0); seed < 10; seed++ {
		g := randomGraph(15, 0.3, seed)
		ls := int64(must(MaxCommonNeighborsCtx(nil, g)))
		base := triangles(g)
		for u := 0; u < 15; u++ {
			for v := u + 1; v < 15; v++ {
				h := g.WithEdgeToggled(u, v)
				diff := triangles(h) - base
				if diff < 0 {
					diff = -diff
				}
				if diff > ls {
					t.Fatalf("seed %d: toggling (%d,%d) changed triangles by %d > LS %d",
						seed, u, v, diff, ls)
				}
			}
		}
	}
}

func triangles(g *graph.Graph) int64 {
	n := g.NumNodes()
	var c int64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
					c++
				}
			}
		}
	}
	return c
}

func TestBetaFor(t *testing.T) {
	got := BetaFor(0.2, 0.01)
	want := 0.2 / (2 * math.Log(200))
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("BetaFor = %v, want %v", got, want)
	}
}

func TestBetaForPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BetaFor(0, 0.1) },
		func() { BetaFor(1, 0) },
		func() { BetaFor(1, 1) },
		func() { must(SmoothCtx(nil, graph.Empty(5), 0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPrivateTrianglesAccurateAtHugeEps(t *testing.T) {
	g := randomGraph(40, 0.3, 7)
	res := must(PrivateTrianglesCtx(nil, nil, g, 1000, 0.01, randx.New(1)))
	if math.Abs(res.Noisy-float64(res.Exact)) > 1 {
		t.Fatalf("noisy %v vs exact %d at huge epsilon", res.Noisy, res.Exact)
	}
	if res.Scale <= 0 || res.SmoothSen < float64(must(MaxCommonNeighborsCtx(nil, g))) {
		t.Fatalf("calibration fields wrong: %+v", res)
	}
}

func TestPrivateTrianglesUnbiased(t *testing.T) {
	g := randomGraph(30, 0.3, 9)
	const trials = 4000
	var sum float64
	var exact float64
	for i := 0; i < trials; i++ {
		res := must(PrivateTrianglesCtx(nil, nil, g, 0.5, 0.01, randx.New(uint64(i))))
		sum += res.Noisy
		exact = float64(res.Exact)
	}
	mean := sum / trials
	// Laplace noise has mean zero; scale here is 2*SS/eps, so allow a
	// few standard errors.
	res := must(PrivateTrianglesCtx(nil, nil, g, 0.5, 0.01, randx.New(0)))
	se := res.Scale * math.Sqrt2 / math.Sqrt(trials)
	if math.Abs(mean-exact) > 5*se {
		t.Fatalf("mean %v vs exact %v (se %v)", mean, exact, se)
	}
}

func TestTinyGraphs(t *testing.T) {
	if got := must(SmoothCtx(nil, graph.Empty(2), 0.5)); got != 0 {
		t.Fatalf("Smooth on 2 nodes = %v, want 0", got)
	}
	if got := SensitivityAtDistance(0, 1, 5); got != 0 {
		t.Fatalf("A^(s) on 1 node = %v, want 0", got)
	}
	res := must(PrivateTrianglesCtx(nil, nil, graph.Empty(2), 1, 0.1, randx.New(3)))
	if res.Noisy != 0 || res.Exact != 0 {
		t.Fatalf("tiny graph result = %+v", res)
	}
}

// stopGraph grows a graph node by node for the stop-rule cases.
type stopGraph struct {
	n     int
	edges [][2]int
}

func (s *stopGraph) node() int { s.n++; return s.n - 1 }

func (s *stopGraph) edge(u, v int) { s.edges = append(s.edges, [2]int{u, v}) }

// leaves hangs k new degree-1 nodes off u.
func (s *stopGraph) leaves(u, k int) {
	for i := 0; i < k; i++ {
		s.edge(u, s.node())
	}
}

// shared adds k new nodes adjacent to both a and b, each with extra
// further leaves of its own, so a and b share k neighbours of degree
// 2+extra.
func (s *stopGraph) shared(a, b, k, extra int) {
	for i := 0; i < k; i++ {
		w := s.node()
		s.edge(a, w)
		s.edge(b, w)
		s.leaves(w, extra)
	}
}

func (s *stopGraph) build() *graph.Graph { return graph.FromEdges(s.n, s.edges) }

// seeded starts a stop-rule graph with a top-degree node t that has
// exactly ls common neighbours with a partner and many leaves, so the
// scan's seed bound — the lim every later source is walked against —
// is ls.
func seeded(ls, topLeaves int) *stopGraph {
	s := &stopGraph{}
	t, p := s.node(), s.node()
	s.shared(t, p, ls, 0)
	s.leaves(t, topLeaves)
	return s
}

// stopRuleCases are graphs on which an early stop of the cheapest-first
// walk that fires one neighbour too soon, or a prefix left uncleared,
// would under-report LS.
func stopRuleCases() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{}

	// u's common neighbours with v are exactly u's highest-degree
	// neighbours (6 hubs of degree 12), walked after 20 leaves; the seed
	// bound is 5, so after the leaves best + 6 unwalked = 6 > 5 and the
	// walk must go on.
	s := seeded(5, 60)
	u, v := s.node(), s.node()
	s.leaves(u, 20)
	s.shared(u, v, 6, 10)
	cases["hubs-last"] = s.build()

	// LS = 7 is reached only at u's last neighbour: the shared hubs have
	// distinct degrees 3…9 and v's count reaches 7 on the most expensive.
	s = seeded(6, 60)
	u, v = s.node(), s.node()
	s.leaves(u, 12)
	for extra := 1; extra <= 7; extra++ {
		s.shared(u, v, 1, extra)
	}
	cases["ls-at-last"] = s.build()

	// The same with the bound already met: LS equals the seed, so the
	// walk may stop after the leaves, but must still report the seed.
	s = seeded(6, 60)
	u, v = s.node(), s.node()
	s.leaves(u, 12)
	s.shared(u, v, 6, 4)
	cases["ls-equals-seed"] = s.build()

	// Ties: two sources of equal degree 9 share 8 neighbours of equal
	// degree, with either one numbered first, against a seed of 7; all
	// of u's neighbours also tie, so the sort falls back to ids.
	for _, flip := range []bool{false, true} {
		s = seeded(7, 40)
		a, b := s.node(), s.node()
		if flip {
			a, b = b, a
		}
		s.shared(a, b, 8, 2)
		s.edge(a, s.node())
		s.edge(b, s.node())
		cases[fmt.Sprintf("equal-degree-ties/flip=%v", flip)] = s.build()
	}
	// Every node has the same degree: a 6-regular circulant with a
	// planted twin pair is all ties, and the seed is already exact.
	cases["regular-ties"] = circulant(40, 3, false).WithEdgeToggled(0, 20)

	// A hub (not the top node) whose cheapest 100 neighbours are leaves:
	// with 4 shared neighbours against a seed of 3 the walk must reach
	// them; with 3 it may stop right after the leaves.
	for _, k := range []int{3, 4} {
		s = seeded(3, 200)
		h, w := s.node(), s.node()
		s.leaves(h, 100)
		s.shared(h, w, k, 1)
		cases[fmt.Sprintf("hub-leaves/shared=%d", k)] = s.build()
	}

	// Heavy-tailed random graphs (Chung–Lu weights ∝ 1/√i), where
	// sources of every degree stop at varied points of their walks.
	for seed := uint64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		const n = 300
		b := graph.NewBuilder(n)
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if r.Float64() < 4/math.Sqrt(float64((x+1)*(y+1))) {
					b.AddEdge(x, y)
				}
			}
		}
		cases[fmt.Sprintf("chung-lu/seed=%d", seed)] = b.Build()
	}
	return cases
}

// TestMaxCommonNeighborsStopRule: the cheapest-first walk's early stop
// keeps LS exact on graphs built to trip it, at every worker count.
func TestMaxCommonNeighborsStopRule(t *testing.T) {
	for name, g := range stopRuleCases() {
		want := bruteMaxCommon(g)
		for _, workers := range []int{1, 2, 4, 8} {
			if got := must(MaxCommonNeighborsCtx(pipeline.New(nil, workers, nil), g)); got != want {
				t.Errorf("%s workers=%d: MaxCommonNeighbors = %d, brute %d", name, workers, got, want)
			}
		}
	}
}

// TestMaxCommonNeighborsScanStopsExactly drives scan itself: against a
// bound it cannot beat it returns at most the bound, against one below
// its best it returns that best exactly, and either way it leaves the
// count array all zero for the next source. Isolated nodes make the
// array large enough that scan re-walks the prefix it walked instead of
// clearing all of it.
func TestMaxCommonNeighborsScanStopsExactly(t *testing.T) {
	s := &stopGraph{}
	h, w := s.node(), s.node()
	s.leaves(h, 100)
	s.shared(h, w, 4, 1)
	s.n += 4000
	g := s.build()
	off, adj := g.CSR()
	dh := off[h+1] - off[h]
	count, order := make([]int32, g.NumNodes()), make([]uint64, dh)
	for _, c := range []struct{ lim, want int32 }{{-1, 4}, {0, 4}, {3, 4}, {4, 0}, {10, 0}} {
		if got := scan(count, order, off, adj, int32(h), dh, c.lim); got != c.want {
			t.Errorf("lim=%d: scan = %d, want %d", c.lim, got, c.want)
		}
		if i := slices.IndexFunc(count, func(x int32) bool { return x != 0 }); i >= 0 {
			t.Fatalf("lim=%d: count[%d] = %d left behind", c.lim, i, count[i])
		}
	}
}
