package smoothsens

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dpkron/internal/accountant"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/randx"
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
	n := g.NumNodes()
	best := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			c := 0
			for w := 0; w < n; w++ {
				if w != u && w != v && g.HasEdge(u, w) && g.HasEdge(v, w) {
					c++
				}
			}
			if c > best {
				best = c
			}
		}
	}
	return best
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

// TestPrivateTrianglesPure: the pure-ε Cauchy release uses β = ε/6,
// records an (ε, 0) charge (with β but never the realized smooth
// sensitivity), and approaches the exact count as ε grows.
func TestPrivateTrianglesPure(t *testing.T) {
	g := randomGraph(40, 0.3, 7)
	acc := accountant.New(nil)
	res, err := PrivateTrianglesPureCtx(nil, acc, g, 1e6, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Noisy-float64(res.Exact)) > 1 {
		t.Fatalf("noisy %v vs exact %d at huge epsilon", res.Noisy, res.Exact)
	}
	if res.Beta != BetaForPure(1e6) || res.Scale != 6*res.SmoothSen/1e6 {
		t.Fatalf("pure calibration wrong: %+v", res)
	}
	ch := acc.Charges()
	if len(ch) != 1 || ch[0].Query != QueryPure || ch[0].Delta != 0 || ch[0].Eps != 1e6 {
		t.Fatalf("pure charge = %+v", ch)
	}
	if ch[0].Beta != res.Beta || ch[0].Sensitivity != 0 {
		t.Fatalf("pure charge leaks or mislabels calibration: %+v", ch[0])
	}

	// A refused charge aborts before the Cauchy draw.
	limited := accountant.New(nil).WithLimit(dp.Budget{Eps: 0.1})
	rng := randx.New(2)
	if _, err := PrivateTrianglesPureCtx(nil, limited, g, 0.5, rng); err == nil {
		t.Fatal("over-limit pure release succeeded")
	}
	probe := randx.New(2)
	if rng.Float64() != probe.Float64() {
		t.Fatal("refused release consumed randomness")
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
