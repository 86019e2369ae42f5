package linalg

import (
	"math"
	"sort"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
)

func randomSymmetric(n int, rng *randx.Rand) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := rng.Normal()
			m[i][j] = x
			m[j][i] = x
		}
	}
	return m
}

func TestJacobiDiagonal(t *testing.T) {
	m := [][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}}
	eig := JacobiEigen(m)
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Fatalf("eig = %v, want %v", eig, want)
		}
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	eig := JacobiEigen([][]float64{{2, 1}, {1, 2}})
	if math.Abs(eig[0]-1) > 1e-10 || math.Abs(eig[1]-3) > 1e-10 {
		t.Fatalf("eig = %v, want [1 3]", eig)
	}
}

func TestJacobiTraceAndFrobenius(t *testing.T) {
	rng := randx.New(1)
	for trial := 0; trial < 5; trial++ {
		m := randomSymmetric(8, rng)
		eig := JacobiEigen(m)
		var trace, fro, sumEig, sumSq float64
		for i := range m {
			trace += m[i][i]
			for j := range m {
				fro += m[i][j] * m[i][j]
			}
		}
		for _, l := range eig {
			sumEig += l
			sumSq += l * l
		}
		if math.Abs(trace-sumEig) > 1e-8 {
			t.Fatalf("trace %v != eig sum %v", trace, sumEig)
		}
		if math.Abs(fro-sumSq) > 1e-8 {
			t.Fatalf("frobenius² %v != eig sq sum %v", fro, sumSq)
		}
	}
}

func TestTridiagEigenvalues(t *testing.T) {
	// Tridiagonal with diagonal 2 and off-diagonal -1 (discrete Laplacian)
	// has eigenvalues 2 - 2cos(kπ/(n+1)).
	n := 12
	alpha := make([]float64, n)
	beta := make([]float64, n-1)
	for i := range alpha {
		alpha[i] = 2
	}
	for i := range beta {
		beta[i] = -1
	}
	got := tridiagEigenvalues(alpha, beta)
	sort.Float64s(got)
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(got[k-1]-want) > 1e-9 {
			t.Fatalf("eig[%d] = %v, want %v (all: %v)", k-1, got[k-1], want, got)
		}
	}
}

func TestLanczosMatchesJacobi(t *testing.T) {
	rng := randx.New(9)
	for trial := 0; trial < 4; trial++ {
		m := randomSymmetric(20, rng)
		dense := JacobiEigen(m) // ascending
		// Full-dimension Lanczos should recover the whole spectrum.
		got := must(TopEigenCtx(nil, DenseOp{M: m}, 20, 20, rng.Split()))
		sort.Float64s(got)
		if len(got) != 20 {
			t.Fatalf("TopEigen returned %d values", len(got))
		}
		for i := range got {
			if math.Abs(got[i]-dense[i]) > 1e-6 {
				t.Fatalf("trial %d: lanczos %v vs jacobi %v at %d", trial, got[i], dense[i], i)
			}
		}
	}
}

func TestTopEigenExtremesOnGraph(t *testing.T) {
	// K_n adjacency has only two distinct eigenvalues, n-1 and -1, so
	// Lanczos exhausts the Krylov space after two steps and returns two
	// Ritz values even though three were requested.
	g := graph.Complete(10)
	eig := must(TopEigenCtx(nil, AdjacencyOp{G: g}, 3, 0, randx.New(5)))
	if len(eig) != 2 {
		t.Fatalf("K10 Ritz values = %v, want exactly the 2 distinct eigenvalues", eig)
	}
	if math.Abs(eig[0]-9) > 1e-8 {
		t.Fatalf("K10 top eigenvalue = %v, want 9", eig[0])
	}
	if math.Abs(eig[1]-(-1)) > 1e-6 {
		t.Fatalf("K10 second eigenvalue = %v, want -1", eig[1])
	}
}

func TestPowerIterationStar(t *testing.T) {
	// Star S_n adjacency is bipartite with λ = ±sqrt(n-1); the shifted
	// iteration must converge to the positive (Perron) eigenvalue.
	g := graph.Star(17)
	lambda, vec, err := PowerIterationCtx(nil, AdjacencyOp{G: g}, float64(g.MaxDegree()), 1e-12, 5000, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-4) > 1e-6 {
		t.Fatalf("star lambda = %v, want +4", lambda)
	}
	// Eigenvector: centre component = 1/sqrt(2), leaves = 1/sqrt(2(n-1)).
	if math.Abs(math.Abs(vec[0])-1/math.Sqrt2) > 1e-5 {
		t.Fatalf("centre component = %v, want %v", math.Abs(vec[0]), 1/math.Sqrt2)
	}
}

func TestNetworkValuesSortedAndNormalized(t *testing.T) {
	g := graph.Complete(8)
	nv := must(NetworkValuesCtx(nil, g, randx.New(3)))
	if len(nv) != 8 {
		t.Fatalf("len = %d", len(nv))
	}
	var sumSq float64
	for i, x := range nv {
		sumSq += x * x
		if i > 0 && nv[i] > nv[i-1] {
			t.Fatal("network values not sorted descending")
		}
	}
	if math.Abs(sumSq-1) > 1e-8 {
		t.Fatalf("eigenvector norm² = %v, want 1", sumSq)
	}
}

func TestScreeValuesCompleteGraph(t *testing.T) {
	// K12 has two distinct eigenvalues (11 and -1), so the scree series
	// collapses to two singular values: 11 and 1.
	g := graph.Complete(12)
	sv := must(ScreeValuesCtx(nil, g, 4, randx.New(8)))
	if len(sv) != 2 {
		t.Fatalf("scree = %v, want 2 values", sv)
	}
	if math.Abs(sv[0]-11) > 1e-7 {
		t.Fatalf("scree[0] = %v, want 11", sv[0])
	}
	if math.Abs(sv[1]-1) > 1e-5 {
		t.Fatalf("scree[1] = %v, want 1", sv[1])
	}
}

func TestAdjacencyOpMatchesDense(t *testing.T) {
	g := graph.Cycle(6)
	n := g.NumNodes()
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for _, w := range g.Neighbors(i) {
			dense[i][w] = 1
		}
	}
	rng := randx.New(4)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Normal()
	}
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	AdjacencyOp{G: g}.Apply(y1, x)
	DenseOp{M: dense}.Apply(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("matvec mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestEmptyOperator(t *testing.T) {
	if got := must(TopEigenCtx(nil, DenseOp{}, 3, 0, randx.New(1))); got != nil {
		t.Fatalf("TopEigen on empty = %v", got)
	}
	l, v, _ := PowerIterationCtx(nil, DenseOp{}, 0, 0, 0, randx.New(1))
	if l != 0 || v != nil {
		t.Fatal("PowerIteration on empty should be zero")
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
