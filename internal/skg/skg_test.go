package skg

import (
	"math"
	"testing"
	"testing/quick"

	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// --- brute-force expectations computed directly from the explicit P ---

// bruteExpected computes E[E], E[H], E[T], E[Delta] by direct summation
// over the probability matrix: the oracle for the closed forms.
func bruteExpected(m Model) stats.Features {
	P := m.ProbMatrix()
	n := len(P)
	var e float64
	for u := 0; u < n; u++ {
		for v := 0; v < u; v++ {
			e += P[u][v]
		}
	}
	// Hairpins and tripins: elementary symmetric sums over each row's
	// off-diagonal entries.
	var h, t float64
	for i := 0; i < n; i++ {
		var p1, p2, p3 float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			x := P[i][j]
			p1 += x
			p2 += x * x
			p3 += x * x * x
		}
		h += (p1*p1 - p2) / 2
		t += (p1*p1*p1 - 3*p1*p2 + 2*p3) / 6
	}
	// Triangles: sum over unordered triples.
	var d float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				d += P[i][j] * P[i][l] * P[j][l]
			}
		}
	}
	return stats.Features{E: e, H: h, T: t, Delta: d}
}

func mustModel(t *testing.T, a, b, c float64, k int) Model {
	t.Helper()
	m, err := NewModel(Initiator{A: a, B: b, C: c}, k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// relClose compares with a relative tolerance plus a small absolute
// floor: the closed forms subtract k-th powers of O(1) quantities, so
// results that are tiny relative to the summands carry ~1e-14 of
// unavoidable cancellation noise in both the closed form and the oracle.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)+1e-9
}

func TestExpectedFeaturesVsBrute(t *testing.T) {
	cases := []struct {
		a, b, c float64
		k       int
	}{
		{0.99, 0.45, 0.25, 2},
		{0.99, 0.45, 0.25, 3},
		{0.99, 0.45, 0.25, 4},
		{1.0, 0.4674, 0.2790, 3}, // paper's CA-GrQc KronMom estimate
		{1.0, 0.63, 0.0, 4},      // paper's AS20 estimate (b > 0, c = 0)
		{0.7, 0.2, 0.6, 3},       // a != c, b > 0: distinguishes the E[T] variants
		{0.5, 0.5, 0.5, 4},
		{0.3, 0.1, 0.9, 5},
		{1.0, 1.0, 1.0, 3},
		{0.0, 0.5, 1.0, 3},
	}
	for _, cse := range cases {
		m := mustModel(t, cse.a, cse.b, cse.c, cse.k)
		got := m.ExpectedFeatures()
		want := bruteExpected(m)
		if !relClose(got.E, want.E, 1e-9) {
			t.Errorf("%v k=%d: E = %v, brute %v", m.Init, m.K, got.E, want.E)
		}
		if !relClose(got.H, want.H, 1e-9) {
			t.Errorf("%v k=%d: H = %v, brute %v", m.Init, m.K, got.H, want.H)
		}
		if !relClose(got.T, want.T, 1e-9) {
			t.Errorf("%v k=%d: T = %v, brute %v", m.Init, m.K, got.T, want.T)
		}
		if !relClose(got.Delta, want.Delta, 1e-9) {
			t.Errorf("%v k=%d: Delta = %v, brute %v", m.Init, m.K, got.Delta, want.Delta)
		}
	}
}

func TestQuickExpectedFeaturesVsBrute(t *testing.T) {
	f := func(ar, br, cr uint16, kr uint8) bool {
		a := float64(ar) / 65535
		b := float64(br) / 65535
		c := float64(cr) / 65535
		k := 2 + int(kr)%3 // k in {2,3,4}
		m, err := NewModel(Initiator{A: a, B: b, C: c}, k)
		if err != nil {
			return false
		}
		got := m.ExpectedFeatures()
		want := bruteExpected(m)
		return relClose(got.E, want.E, 1e-8) && relClose(got.H, want.H, 1e-8) &&
			relClose(got.T, want.T, 1e-8) && relClose(got.Delta, want.Delta, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEdgeProbMatchesKroneckerPower(t *testing.T) {
	m := mustModel(t, 0.9, 0.5, 0.2, 4)
	P := KroneckerPower(m.Init.Dense(), m.K)
	n := m.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if math.Abs(m.EdgeProb(u, v)-P[u][v]) > 1e-12 {
				t.Fatalf("EdgeProb(%d,%d) = %v, kron power %v", u, v, m.EdgeProb(u, v), P[u][v])
			}
		}
	}
}

func TestProbMatrixMatchesEdgeProb(t *testing.T) {
	m := mustModel(t, 0.8, 0.3, 0.6, 5)
	P := m.ProbMatrix()
	for u := 0; u < m.NumNodes(); u += 7 {
		for v := 0; v < m.NumNodes(); v += 5 {
			if math.Abs(P[u][v]-m.EdgeProb(u, v)) > 1e-15 {
				t.Fatalf("mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestQuadrantCountsSum(t *testing.T) {
	m := mustModel(t, 0.5, 0.5, 0.5, 7)
	for u := 0; u < m.NumNodes(); u += 11 {
		for v := 0; v < m.NumNodes(); v += 13 {
			na, nb, nc := m.QuadrantCounts(u, v)
			if na+nb+nc != m.K || na < 0 || nb < 0 || nc < 0 {
				t.Fatalf("QuadrantCounts(%d,%d) = %d,%d,%d", u, v, na, nb, nc)
			}
		}
	}
}

func TestQuadrantCountsKnown(t *testing.T) {
	m := mustModel(t, 0.5, 0.5, 0.5, 3)
	// u = 0b101, v = 0b001: levels (1,0),(0,0),(1,1) -> na=1, nb=1, nc=1.
	na, nb, nc := m.QuadrantCounts(0b101, 0b001)
	if na != 1 || nb != 1 || nc != 1 {
		t.Fatalf("QuadrantCounts = %d,%d,%d, want 1,1,1", na, nb, nc)
	}
}

func TestSampleExactMatchesExpectations(t *testing.T) {
	m := mustModel(t, 0.99, 0.45, 0.25, 8)
	rng := randx.New(42)
	const trials = 60
	var sumE, sumH, sumD float64
	for i := 0; i < trials; i++ {
		g := must(m.SampleExactCtx(nil, rng))
		f := must(stats.FeaturesOfCtx(nil, g))
		sumE += f.E
		sumH += f.H
		sumD += f.Delta
	}
	want := m.ExpectedFeatures()
	if got := sumE / trials; !relClose(got, want.E, 0.05) {
		t.Errorf("mean edges %v vs expected %v", got, want.E)
	}
	if got := sumH / trials; !relClose(got, want.H, 0.10) {
		t.Errorf("mean hairpins %v vs expected %v", got, want.H)
	}
	if got := sumD / trials; !relClose(got, want.Delta, 0.25) {
		t.Errorf("mean triangles %v vs expected %v", got, want.Delta)
	}
}

func TestSampleExactIsValidSimpleGraph(t *testing.T) {
	m := mustModel(t, 0.9, 0.6, 0.3, 7)
	g := must(m.SampleExactCtx(nil, randx.New(7)))
	if g.NumNodes() != 128 {
		t.Fatalf("nodes = %d, want 128", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleBallDropEdgeCount(t *testing.T) {
	m := mustModel(t, 0.99, 0.55, 0.35, 10)
	g := must(m.SampleBallDropCtx(nil, randx.New(9)))
	want := int(math.Round(m.ExpectedFeatures().E))
	if g.NumEdges() != want {
		t.Fatalf("ball drop edges = %d, want %d", g.NumEdges(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleBallDropStatisticsTrackExact(t *testing.T) {
	// The two samplers should produce graphs with similar wedge and
	// triangle counts on average (ball dropping approximates the SKG).
	m := mustModel(t, 0.99, 0.5, 0.2, 9)
	rngA, rngB := randx.New(3), randx.New(4)
	const trials = 20
	var hExact, hDrop, dExact, dDrop float64
	for i := 0; i < trials; i++ {
		fe := must(stats.FeaturesOfCtx(nil, must(m.SampleExactCtx(nil, rngA))))
		fd := must(stats.FeaturesOfCtx(nil, must(m.SampleBallDropCtx(nil, rngB))))
		hExact += fe.H
		hDrop += fd.H
		dExact += fe.Delta
		dDrop += fd.Delta
	}
	if !relClose(hDrop, hExact, 0.15) {
		t.Errorf("mean hairpins: drop %v vs exact %v", hDrop/trials, hExact/trials)
	}
	if !relClose(dDrop, dExact, 0.45) {
		t.Errorf("mean triangles: drop %v vs exact %v", dDrop/trials, dExact/trials)
	}
}

func TestSampleBallDropZeroMass(t *testing.T) {
	m := mustModel(t, 0, 0, 0, 5)
	g := must(m.SampleBallDropCtx(nil, randx.New(1)))
	if g.NumEdges() != 0 {
		t.Fatalf("zero-mass initiator produced %d edges", g.NumEdges())
	}
}

func TestSampleDispatch(t *testing.T) {
	m := mustModel(t, 0.9, 0.4, 0.2, 6)
	g := must(m.SampleCtx(nil, randx.New(2)))
	if g.NumNodes() != 64 {
		t.Fatal("Sample produced wrong node count")
	}
}

func TestCanonical(t *testing.T) {
	in := Initiator{A: 0.2, B: 0.5, C: 0.9}
	canon := in.Canonical()
	if canon.A != 0.9 || canon.C != 0.2 || canon.B != 0.5 {
		t.Fatalf("Canonical = %+v", canon)
	}
	already := Initiator{A: 0.9, B: 0.5, C: 0.2}
	if already.Canonical() != already {
		t.Fatal("Canonical changed an already-canonical initiator")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(Initiator{A: 1.2, B: 0, C: 0}, 3); err == nil {
		t.Error("accepted entry > 1")
	}
	if _, err := NewModel(Initiator{A: 0.5, B: -0.1, C: 0}, 3); err == nil {
		t.Error("accepted negative entry")
	}
	if _, err := NewModel(Initiator{A: 0.5, B: 0.1, C: 0.2}, 0); err == nil {
		t.Error("accepted K = 0")
	}
	if _, err := NewModel(Initiator{A: 0.5, B: 0.1, C: 0.2}, 31); err == nil {
		t.Error("accepted K = 31")
	}
	if _, err := NewModel(Initiator{A: math.NaN(), B: 0.1, C: 0.2}, 3); err == nil {
		t.Error("accepted NaN entry")
	}
}

func TestKroneckerPowerDims(t *testing.T) {
	P := KroneckerPower([][]float64{{1, 2}, {3, 4}}, 3)
	if len(P) != 8 || len(P[0]) != 8 {
		t.Fatalf("Kronecker power dims = %dx%d", len(P), len(P[0]))
	}
	// Entry (0,0) of the cube is 1; entry (7,7) is 4³ = 64.
	if P[0][0] != 1 || P[7][7] != 64 {
		t.Fatalf("corner entries = %v, %v", P[0][0], P[7][7])
	}
}

func TestExpectedEdgesMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := 2; k <= 10; k++ {
		m := mustModel(t, 0.99, 0.45, 0.25, k)
		e := m.ExpectedFeatures().E
		if e <= prev {
			t.Fatalf("expected edges not increasing at k=%d: %v <= %v", k, e, prev)
		}
		prev = e
	}
}

func TestExpectedFeaturesNonNegative(t *testing.T) {
	f := func(ar, br, cr uint16, kr uint8) bool {
		m, err := NewModel(Initiator{
			A: float64(ar) / 65535, B: float64(br) / 65535, C: float64(cr) / 65535,
		}, 2+int(kr)%9)
		if err != nil {
			return false
		}
		ef := m.ExpectedFeatures()
		const eps = -1e-6
		return ef.E >= eps && ef.H >= eps && ef.T >= eps && ef.Delta >= eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
