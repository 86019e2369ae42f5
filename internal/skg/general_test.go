package skg

import (
	"math"
	"testing"
	"testing/quick"

	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// bruteExpectedGeneral mirrors bruteExpected for GeneralModel.
func bruteExpectedGeneral(m GeneralModel) stats.Features {
	P := m.ProbMatrix()
	n := len(P)
	var e float64
	for u := 0; u < n; u++ {
		for v := 0; v < u; v++ {
			e += P[u][v]
		}
	}
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

func TestGeneralMatchesBinaryModel(t *testing.T) {
	// A 2×2 GeneralModel must agree exactly with the specialized Model.
	init := Initiator{A: 0.9, B: 0.45, C: 0.3}
	gm, err := NewGeneralModel(init.Dense(), 5)
	if err != nil {
		t.Fatal(err)
	}
	bm := Model{Init: init, K: 5}
	if gm.NumNodes() != bm.NumNodes() {
		t.Fatal("node counts differ")
	}
	gf, bf := gm.ExpectedFeatures(), bm.ExpectedFeatures()
	for _, p := range [][2]float64{{gf.E, bf.E}, {gf.H, bf.H}, {gf.T, bf.T}, {gf.Delta, bf.Delta}} {
		if math.Abs(p[0]-p[1]) > 1e-9*(1+math.Abs(p[1])) {
			t.Fatalf("expected features differ: general %+v vs binary %+v", gf, bf)
		}
	}
	// Edge probabilities: note the digit orders differ (GeneralModel
	// consumes least-significant digits first; the binary model uses
	// bit masks, which is order-invariant for symmetric per-level
	// products), so compare via brute expectations instead of per-pair.
	for u := 0; u < gm.NumNodes(); u += 3 {
		for v := 0; v < gm.NumNodes(); v += 7 {
			if math.Abs(gm.EdgeProb(u, v)-bm.EdgeProb(u, v)) > 1e-12 {
				t.Fatalf("EdgeProb mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestGeneralExpectedFeaturesVsBrute3x3(t *testing.T) {
	cases := [][][]float64{
		{
			{0.9, 0.5, 0.2},
			{0.5, 0.6, 0.3},
			{0.2, 0.3, 0.4},
		},
		{
			{1.0, 0.4, 0.1},
			{0.4, 0.0, 0.7},
			{0.1, 0.7, 0.9},
		},
	}
	for ci, theta := range cases {
		for _, k := range []int{2, 3} {
			m, err := NewGeneralModel(theta, k)
			if err != nil {
				t.Fatal(err)
			}
			got := m.ExpectedFeatures()
			want := bruteExpectedGeneral(m)
			check := func(name string, g, w float64) {
				if math.Abs(g-w) > 1e-8*(1+math.Abs(w))+1e-9 {
					t.Errorf("case %d k=%d %s: closed form %v vs brute %v", ci, k, name, g, w)
				}
			}
			check("E", got.E, want.E)
			check("H", got.H, want.H)
			check("T", got.T, want.T)
			check("Delta", got.Delta, want.Delta)
		}
	}
}

func TestGeneralQuickExpectedVsBrute(t *testing.T) {
	f := func(raw [6]uint16, kr uint8) bool {
		// Random symmetric 3×3 from 6 free entries.
		v := func(i int) float64 { return float64(raw[i]) / 65535 }
		theta := [][]float64{
			{v(0), v(1), v(2)},
			{v(1), v(3), v(4)},
			{v(2), v(4), v(5)},
		}
		k := 2 + int(kr)%2 // 2..3
		m, err := NewGeneralModel(theta, k)
		if err != nil {
			return false
		}
		got := m.ExpectedFeatures()
		want := bruteExpectedGeneral(m)
		close := func(g, w float64) bool { return math.Abs(g-w) <= 1e-8*(1+math.Abs(w))+1e-9 }
		return close(got.E, want.E) && close(got.H, want.H) &&
			close(got.T, want.T) && close(got.Delta, want.Delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestGeneralValidation(t *testing.T) {
	bad := [][][]float64{
		{{0.5}},                            // 1×1
		{{0.5, 0.2}, {0.2, 1.5}},           // entry > 1
		{{0.5, 0.2}, {0.3, 0.5}},           // asymmetric
		{{0.5, 0.2, 0.1}, {0.2, 0.5, 0.1}}, // non-square
		{{math.NaN(), 0.2}, {0.2, 0.5}},    // NaN
	}
	for i, theta := range bad {
		if _, err := NewGeneralModel(theta, 3); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	ok := [][]float64{{0.5, 0.2}, {0.2, 0.5}}
	if _, err := NewGeneralModel(ok, 0); err == nil {
		t.Error("accepted K = 0")
	}
	if _, err := NewGeneralModel(ok, 40); err == nil {
		t.Error("accepted overflowing K")
	}
}

func TestGeneralSampleExactMatchesExpectation(t *testing.T) {
	theta := [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.3},
		{0.2, 0.3, 0.4},
	}
	m, err := NewGeneralModel(theta, 5) // 243 nodes
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(8)
	const trials = 40
	var sumE, sumH float64
	for i := 0; i < trials; i++ {
		g := m.SampleExact(rng)
		f := must(stats.FeaturesOfCtx(nil, g))
		sumE += f.E
		sumH += f.H
	}
	want := m.ExpectedFeatures()
	if rel := math.Abs(sumE/trials-want.E) / want.E; rel > 0.05 {
		t.Errorf("mean edges %v vs expected %v", sumE/trials, want.E)
	}
	if rel := math.Abs(sumH/trials-want.H) / want.H; rel > 0.10 {
		t.Errorf("mean hairpins %v vs expected %v", sumH/trials, want.H)
	}
}

func TestGeneralN1AndNodes(t *testing.T) {
	theta := [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.3},
		{0.2, 0.3, 0.4},
	}
	m, err := NewGeneralModel(theta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.N1() != 3 || m.NumNodes() != 81 {
		t.Fatalf("N1 = %d, nodes = %d", m.N1(), m.NumNodes())
	}
}
