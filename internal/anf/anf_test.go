package anf

import (
	"math"
	"math/rand/v2"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

func randomGraph(n int, p float64, seed uint64) *graph.Graph {
	r := rand.New(rand.NewPCG(seed, seed+13))
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

func TestHopPlotCloseToExact(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := randomGraph(200, 0.03, seed)
		exact := must(stats.HopPlotCtx(nil, g))
		approx := must(HopPlotCtx(nil, g, Options{Trials: 128, Rng: randx.New(seed)}))
		// Compare the final reachable-pair counts within 15%.
		e := float64(exact[len(exact)-1])
		a := approx[len(approx)-1]
		if rel := math.Abs(a-e) / e; rel > 0.15 {
			t.Errorf("seed %d: final count approx %.0f vs exact %.0f (rel %.3f)", seed, a, e, rel)
		}
		// Compare a mid hop too.
		mid := len(exact) / 2
		if mid < len(approx) {
			e, a := float64(exact[mid]), approx[mid]
			if rel := math.Abs(a-e) / e; rel > 0.25 {
				t.Errorf("seed %d: hop %d approx %.0f vs exact %.0f (rel %.3f)", seed, mid, a, e, rel)
			}
		}
	}
}

func TestHopPlotMonotone(t *testing.T) {
	g := randomGraph(100, 0.05, 7)
	hop := must(HopPlotCtx(nil, g, Options{Trials: 32, Rng: randx.New(7)}))
	for i := 1; i < len(hop); i++ {
		if hop[i] < hop[i-1] {
			t.Fatalf("hop plot not monotone at %d: %v", i, hop)
		}
	}
}

func TestHopPlotEmptyAndSingleton(t *testing.T) {
	if got := must(HopPlotCtx(nil, graph.Empty(0), Options{Rng: randx.New(1)})); got != nil {
		t.Fatalf("empty graph hop plot = %v, want nil", got)
	}
	// Five isolated nodes: the series must converge immediately (no
	// growth past hop 0). FM sketches overestimate tiny cardinalities
	// (the phi correction is asymptotic), so only the shape is checked.
	hop := must(HopPlotCtx(nil, graph.Empty(5), Options{Trials: 64, Rng: randx.New(1)}))
	if len(hop) != 1 || hop[0] <= 0 {
		t.Fatalf("isolated nodes hop plot = %v, want single positive entry", hop)
	}
}

func TestHopPlotDeterministicGivenSeed(t *testing.T) {
	g := randomGraph(60, 0.08, 3)
	a := must(HopPlotCtx(nil, g, Options{Trials: 16, Rng: randx.New(42)}))
	b := must(HopPlotCtx(nil, g, Options{Trials: 16, Rng: randx.New(42)}))
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic values")
		}
	}
}

func TestEffectiveDiameterInterpolation(t *testing.T) {
	hop := []float64{4, 10, 14, 16}
	d := EffectiveDiameter(hop, 0.9)
	if math.Abs(d-2.2) > 1e-9 {
		t.Fatalf("EffectiveDiameter = %v, want 2.2", d)
	}
}

func TestRequiresRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Rng")
		}
	}()
	must(HopPlotCtx(nil, graph.Empty(3), Options{}))
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
