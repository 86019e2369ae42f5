package kronfit

import (
	"math"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// exactLL computes the log-likelihood by materializing the probability
// matrix: Σ over ordered pairs u≠v of A_uv·log P + (1−A_uv)·log(1−P),
// under the same permutation the package state uses.
func exactLL(g *graph.Graph, k int, init skg.Initiator, sigma []int) float64 {
	m := skg.Model{Init: init, K: k}
	P := m.ProbMatrix()
	n := 1 << k
	N := g.NumNodes()
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p := P[sigma[i]][sigma[j]]
			edge := i < N && j < N && g.HasEdge(i, j)
			if edge {
				total += math.Log(p)
			} else {
				total += math.Log1p(-p)
			}
		}
	}
	return total
}

func testGraph(k int, init skg.Initiator, seed uint64) *graph.Graph {
	m := skg.Model{Init: init, K: k}
	return must(m.SampleExactCtx(nil, randx.New(seed)))
}

func TestSwapDeltaMatchesFullRecompute(t *testing.T) {
	init := skg.Initiator{A: 0.9, B: 0.55, C: 0.25}
	g := testGraph(6, init, 3)
	rng := randx.New(7)
	s := newState(g, 6, init, rng)
	for trial := 0; trial < 200; trial++ {
		x, y := rng.IntN(s.n), rng.IntN(s.n)
		if x == y {
			continue
		}
		before := s.ll()
		want := s.swapDelta(x, y)
		s.sigma[x], s.sigma[y] = s.sigma[y], s.sigma[x]
		after := s.ll()
		if math.Abs((after-before)-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("trial %d: swapDelta = %v, recompute = %v", trial, want, after-before)
		}
	}
}

func TestApproxLLCloseToExact(t *testing.T) {
	// The Taylor expansion of the no-edge sum is third-order accurate per
	// pair; on a sparse Kronecker model the relative error should be
	// well under 2%.
	init := skg.Initiator{A: 0.9, B: 0.5, C: 0.2}
	g := testGraph(7, init, 5)
	rng := randx.New(1)
	s := newState(g, 7, init, rng)
	got := s.ll()
	want := exactLL(g, 7, init, s.sigma)
	if rel := math.Abs(got-want) / math.Abs(want); rel > 0.02 {
		t.Fatalf("approx ll = %v, exact = %v (rel %.4f)", got, want, rel)
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	init := skg.Initiator{A: 0.85, B: 0.5, C: 0.3}
	g := testGraph(6, init, 11)
	rng := randx.New(2)
	s := newState(g, 6, init, rng)
	ga, gb, gc := s.grad()
	const h = 1e-6
	numeric := func(bump func(skg.Initiator) skg.Initiator) float64 {
		up := newState(g, 6, bump(init), rng)
		copy(up.sigma, s.sigma)
		down := newState(g, 6, init, rng)
		copy(down.sigma, s.sigma)
		return (up.ll() - down.ll()) / h
	}
	na := numeric(func(i skg.Initiator) skg.Initiator { i.A += h; return i })
	nb := numeric(func(i skg.Initiator) skg.Initiator { i.B += h; return i })
	nc := numeric(func(i skg.Initiator) skg.Initiator { i.C += h; return i })
	for _, pair := range [][2]float64{{ga, na}, {gb, nb}, {gc, nc}} {
		if math.Abs(pair[0]-pair[1]) > 1e-3*(1+math.Abs(pair[1])) {
			t.Fatalf("gradient mismatch: analytic %v vs numeric %v (all: %v,%v,%v vs %v,%v,%v)",
				pair[0], pair[1], ga, gb, gc, na, nb, nc)
		}
	}
}

func TestMetropolisDoesNotDegradeLikelihood(t *testing.T) {
	// Starting from a random permutation, MCMC should (statistically)
	// increase the likelihood; at minimum it must not collapse.
	init := skg.Initiator{A: 0.9, B: 0.5, C: 0.2}
	g := testGraph(7, init, 9)
	rng := randx.New(3)
	s := newState(g, 7, init, rng)
	// Scramble sigma to a random permutation.
	perm := rng.Perm(s.n)
	copy(s.sigma, perm)
	before := s.ll()
	s.metropolis(20*s.n, rng)
	after := s.ll()
	if after < before-1 {
		t.Fatalf("likelihood degraded: %v -> %v", before, after)
	}
	if after <= before {
		t.Logf("note: ll %v -> %v (no improvement)", before, after)
	}
}

func TestDegreeSeededPermutationBeatsRandom(t *testing.T) {
	init := skg.Initiator{A: 0.95, B: 0.5, C: 0.15}
	g := testGraph(8, init, 13)
	rng := randx.New(4)
	s := newState(g, 8, init, rng)
	seeded := s.ll()
	var worse int
	for trial := 0; trial < 10; trial++ {
		copy(s.sigma, rng.Perm(s.n))
		if s.ll() < seeded {
			worse++
		}
	}
	if worse < 8 {
		t.Fatalf("degree-seeded permutation beaten by %d/10 random permutations", 10-worse)
	}
}

func TestFitRecoversParameters(t *testing.T) {
	truth := skg.Initiator{A: 0.9, B: 0.5, C: 0.2}
	g := testGraph(9, truth, 21)
	res, err := FitCtx(nil, g, Options{K: 9, Iters: 40, Rng: randx.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Init.A-truth.A) > 0.15 ||
		math.Abs(res.Init.B-truth.B) > 0.15 ||
		math.Abs(res.Init.C-truth.C) > 0.15 {
		t.Fatalf("truth %v, recovered %v", truth, res.Init)
	}
}

func TestFitImprovesLikelihoodOverInit(t *testing.T) {
	truth := skg.Initiator{A: 0.95, B: 0.45, C: 0.25}
	g := testGraph(8, truth, 33)
	rng := randx.New(6)
	start := skg.Initiator{A: 0.9, B: 0.6, C: 0.2}
	ll0, err := LogLikelihoodCtx(nil, g, 8, start, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FitCtx(nil, g, Options{K: 8, Iters: 40, Init: start, Rng: randx.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood < ll0 {
		t.Fatalf("fit did not improve likelihood: %v -> %v", ll0, res.LogLikelihood)
	}
}

func TestFitInfersK(t *testing.T) {
	g := testGraph(6, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 2)
	res, err := FitCtx(nil, g, Options{Iters: 2, Rng: randx.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Fatalf("inferred K = %d, want 6", res.K)
	}
}

func TestFitRejectsTooSmallK(t *testing.T) {
	g := graph.Complete(64)
	if _, err := FitCtx(nil, g, Options{K: 5, Iters: 1, Rng: randx.New(1)}); err == nil {
		t.Fatal("expected error: 2^5 < 64... wait, 2^5 = 32 < 64")
	}
}

func TestFitRequiresRng(t *testing.T) {
	g := graph.Complete(8)
	if _, err := FitCtx(nil, g, Options{K: 3}); err == nil {
		t.Fatal("expected error without Rng")
	}
}

func TestFitHandlesPaddedNodes(t *testing.T) {
	// 40 nodes require K = 6 (64 slots): 24 isolated padding slots.
	b := graph.NewBuilder(40)
	for i := 0; i < 39; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	res, err := FitCtx(nil, g, Options{Iters: 5, Rng: randx.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Fatalf("K = %d, want 6", res.K)
	}
	if err := res.Init.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitCanonical(t *testing.T) {
	g := testGraph(7, skg.Initiator{A: 0.9, B: 0.4, C: 0.3}, 17)
	res, err := FitCtx(nil, g, Options{K: 7, Iters: 15, Rng: randx.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Init.A < res.Init.C {
		t.Fatalf("result not canonical: %v", res.Init)
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
