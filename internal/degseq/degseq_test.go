package degseq

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dpkron/internal/graph"
	"dpkron/internal/randx"
)

func randomGraph(n int, p float64, seed uint64) *graph.Graph {
	r := rand.New(rand.NewPCG(seed, seed+77))
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

func isNonDecreasing(x []float64) bool {
	for i := 1; i < len(x); i++ {
		if x[i] < x[i-1]-1e-12 {
			return false
		}
	}
	return true
}

func sse(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestSorted(t *testing.T) {
	g := graph.Star(5)
	d := Sorted(g)
	want := []float64{1, 1, 1, 1, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", d, want)
		}
	}
}

func TestIsotonicAlreadyMonotone(t *testing.T) {
	in := []float64{1, 2, 2, 3, 10}
	out := Isotonic(in)
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-15 {
			t.Fatalf("Isotonic changed a monotone input: %v -> %v", in, out)
		}
	}
}

func TestIsotonicSingleViolation(t *testing.T) {
	out := Isotonic([]float64{1, 3, 2, 4})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("Isotonic = %v, want %v", out, want)
		}
	}
}

func TestIsotonicAllDecreasing(t *testing.T) {
	out := Isotonic([]float64{5, 4, 3, 2, 1})
	for _, v := range out {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("Isotonic of decreasing = %v, want all 3", out)
		}
	}
}

func TestIsotonicEmptyAndSingle(t *testing.T) {
	if out := Isotonic(nil); len(out) != 0 {
		t.Fatal("empty input")
	}
	if out := Isotonic([]float64{7}); len(out) != 1 || out[0] != 7 {
		t.Fatal("singleton input")
	}
}

func TestIsotonicPreservesMean(t *testing.T) {
	// PAVA block means preserve the total sum.
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		var sumIn float64
		for i, v := range raw {
			in[i] = float64(v)
			sumIn += in[i]
		}
		out := Isotonic(in)
		var sumOut float64
		for _, v := range out {
			sumOut += v
		}
		return math.Abs(sumIn-sumOut) < 1e-9*(1+math.Abs(sumIn)) && isNonDecreasing(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsotonicIdempotent(t *testing.T) {
	f := func(raw []int8) bool {
		in := make([]float64, len(raw))
		for i, v := range raw {
			in[i] = float64(v)
		}
		once := Isotonic(in)
		twice := Isotonic(once)
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The projection property: the PAVA output must have no larger SSE than
// any other monotone candidate. Compare against random monotone vectors.
func TestIsotonicIsL2Projection(t *testing.T) {
	rng := randx.New(5)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(10)
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.Normal() * 5
		}
		best := Isotonic(in)
		bestSSE := sse(best, in)
		if !isNonDecreasing(best) {
			t.Fatalf("output not monotone: %v", best)
		}
		for cand := 0; cand < 200; cand++ {
			c := make([]float64, n)
			c[0] = rng.Normal() * 5
			for i := 1; i < n; i++ {
				c[i] = c[i-1] + rng.Exponential(1)
			}
			if sse(c, in) < bestSSE-1e-9 {
				t.Fatalf("found better monotone fit %v (sse %v < %v) for input %v",
					c, sse(c, in), bestSSE, in)
			}
		}
	}
}

// Toggling one edge changes the *sorted* degree sequence by at most 2 in
// L1 — the global sensitivity constant used for calibration.
func TestSortedDegreeSensitivityBound(t *testing.T) {
	rng := randx.New(11)
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(20, 0.25, uint64(trial))
		u := rng.IntN(20)
		v := rng.IntN(20)
		if u == v {
			continue
		}
		h := g.WithEdgeToggled(u, v)
		a, b := Sorted(g), Sorted(h)
		var l1 float64
		for i := range a {
			l1 += math.Abs(a[i] - b[i])
		}
		if l1 > GlobalSensitivity+1e-12 {
			t.Fatalf("trial %d: sorted degree L1 distance %v > %v", trial, l1, GlobalSensitivity)
		}
	}
}

func TestPrivateIsMonotoneAndAccurate(t *testing.T) {
	g := randomGraph(200, 0.1, 3)
	rng := randx.New(8)
	priv := Private(g, 1000, rng) // enormous ε: noise negligible
	if !isNonDecreasing(priv) {
		t.Fatal("Private output not monotone")
	}
	exact := Sorted(g)
	for i := range exact {
		if math.Abs(priv[i]-exact[i]) > 0.5 {
			t.Fatalf("index %d: private %v vs exact %v at huge epsilon", i, priv[i], exact[i])
		}
	}
}

func TestPrivatePostprocessingReducesError(t *testing.T) {
	g := randomGraph(300, 0.05, 4)
	exact := Sorted(g)
	var rawErr, postErr float64
	const trials = 30
	for i := 0; i < trials; i++ {
		rng := randx.New(uint64(100 + i))
		raw := PrivateRaw(g, 0.2, rng)
		rawErr += sse(raw, exact)
		postErr += sse(Isotonic(raw), exact)
	}
	if postErr >= rawErr {
		t.Fatalf("constrained inference did not reduce error: post %v >= raw %v", postErr, rawErr)
	}
	// Hay et al. report large gains; expect at least 2x on this size.
	if postErr*2 > rawErr {
		t.Logf("warning: modest improvement: post %v vs raw %v", postErr, rawErr)
	}
}

func TestPrivateDeterministicGivenSeed(t *testing.T) {
	g := randomGraph(50, 0.2, 6)
	a := Private(g, 0.5, randx.New(42))
	b := Private(g, 0.5, randx.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Private not deterministic for fixed seed")
		}
	}
}

func TestSortedIsSorted(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(30, 0.2, seed%100)
		return sort.Float64sAreSorted(Sorted(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortedMatchesSortedDegrees: the counting sort from the CSR
// offsets gives exactly the sorted degree list, including on graphs
// with no nodes, no edges and one hub.
func TestSortedMatchesSortedDegrees(t *testing.T) {
	cases := []*graph.Graph{{}, graph.Empty(0), graph.Empty(4), graph.Star(9), graph.Complete(5)}
	for seed := uint64(0); seed < 6; seed++ {
		cases = append(cases, randomGraph(50, 0.1*float64(seed), seed))
	}
	for i, g := range cases {
		d := g.Degrees()
		sort.Ints(d)
		want := make([]float64, len(d))
		for j, x := range d {
			want[j] = float64(x)
		}
		if got := Sorted(g); !slices.Equal(got, want) {
			t.Errorf("case %d: Sorted = %v, want %v", i, got, want)
		}
	}
}
