package core

import (
	"math"
	"reflect"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/kronmom"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

func sample(t *testing.T, init skg.Initiator, k int, seed uint64) *graph.Graph {
	t.Helper()
	m := skg.Model{Init: init, K: k}
	return must(m.SampleExactCtx(nil, randx.New(seed)))
}

func TestEstimateBudgetAccounting(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 8, 1)
	res, err := EstimateCtx(nil, g, Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Privacy.Eps-0.2) > 1e-12 || math.Abs(res.Privacy.Delta-0.01) > 1e-12 {
		t.Fatalf("privacy total = %v", res.Privacy)
	}
	if len(res.Charges) != 2 {
		t.Fatalf("charges = %d, want 2", len(res.Charges))
	}
	if res.Charges[0].Eps != 0.1 || res.Charges[1].Eps != 0.1 {
		t.Fatalf("per-mechanism epsilon split wrong: %+v", res.Charges)
	}
	if res.Charges[0].Delta != 0 || res.Charges[1].Delta != 0.01 {
		t.Fatalf("delta charged to wrong mechanism: %+v", res.Charges)
	}
	// The receipt mirrors the charges and the planned schedule matches
	// the realized one exactly: Algorithm 1's spend is data-independent.
	if res.Receipt.Total != res.Privacy {
		t.Fatalf("receipt total %v != privacy %v", res.Receipt.Total, res.Privacy)
	}
	planned := PlannedReceipt(0.2, 0.01)
	if !reflect.DeepEqual(planned, res.Receipt) {
		t.Fatalf("planned receipt %+v != realized %+v", planned, res.Receipt)
	}
}

func TestEstimateMatchesNonPrivateAtHugeEpsilon(t *testing.T) {
	truth := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	g := sample(t, truth, 10, 3)
	res, err := EstimateCtx(nil, g, Options{Eps: 1e7, Delta: 0.01, Rng: randx.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	nonPriv, err := kronmom.FitGraphCtx(nil, g, 10, kronmom.Options{Rng: randx.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Init.A-nonPriv.Init.A) > 0.02 ||
		math.Abs(res.Init.B-nonPriv.Init.B) > 0.02 ||
		math.Abs(res.Init.C-nonPriv.Init.C) > 0.02 {
		t.Fatalf("private (huge eps) %v vs non-private %v", res.Init, nonPriv.Init)
	}
}

func TestEstimateRecoversTruthAtModerateEpsilon(t *testing.T) {
	// The paper's headline: at ε = 0.2 the private estimate tracks the
	// non-private moment estimate closely on graphs of a few thousand
	// nodes. Use k=11 (2048 nodes) and a fixed seed.
	truth := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	g := sample(t, truth, 11, 7)
	res, err := EstimateCtx(nil, g, Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	nonPriv, err := kronmom.FitGraphCtx(nil, g, 11, kronmom.Options{Rng: randx.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Init.A-nonPriv.Init.A) > 0.1 ||
		math.Abs(res.Init.B-nonPriv.Init.B) > 0.1 ||
		math.Abs(res.Init.C-nonPriv.Init.C) > 0.15 {
		t.Fatalf("private %v vs non-private %v", res.Init, nonPriv.Init)
	}
}

func TestEstimatePrivateFeaturesNearExactAtHugeEps(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.3}, 9, 5)
	res, err := EstimateCtx(nil, g, Options{Eps: 1e8, Delta: 0.5, Rng: randx.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	exact := must(stats.FeaturesOfCtx(nil, g))
	if math.Abs(res.Features.E-exact.E) > 1 ||
		math.Abs(res.Features.H-exact.H) > exact.H*0.01+5 ||
		math.Abs(res.Features.T-exact.T) > exact.T*0.01+5 ||
		math.Abs(res.Features.Delta-exact.Delta) > 1 {
		t.Fatalf("features %+v vs exact %+v", res.Features, exact)
	}
}

func TestEstimateDeterministicGivenSeed(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 8, 9)
	a, err := EstimateCtx(nil, g, Options{Eps: 0.5, Delta: 0.05, Rng: randx.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateCtx(nil, g, Options{Eps: 0.5, Delta: 0.05, Rng: randx.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Init != b.Init || a.Features != b.Features {
		t.Fatalf("non-deterministic: %v vs %v", a.Init, b.Init)
	}
}

func TestEstimateValidation(t *testing.T) {
	g := graph.Complete(8)
	cases := []Options{
		{Eps: 0, Delta: 0.01, Rng: randx.New(1)},         // bad eps
		{Eps: 0.2, Delta: 0, Rng: randx.New(1)},          // delta required
		{Eps: 0.2, Delta: 1.5, Rng: randx.New(1)},        // bad delta
		{Eps: 0.2, Delta: 0.01},                          // missing rng
		{Eps: 0.2, Delta: 0.01, K: 2, Rng: randx.New(1)}, // 2^2 < 8
	}
	for i, o := range cases {
		if _, err := EstimateCtx(nil, g, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEstimateInfersK(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 7, 2)
	res, err := EstimateCtx(nil, g, Options{Eps: 1, Delta: 0.1, Rng: randx.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 7 {
		t.Fatalf("inferred K = %d, want 7", res.K)
	}
	if res.Model().K != 7 || res.Model().Init != res.Init {
		t.Fatal("Model() mismatch")
	}
}

func TestEstimateDegreeSequenceReleased(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 8, 4)
	res, err := EstimateCtx(nil, g, Options{Eps: 0.5, Delta: 0.01, Rng: randx.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DegreeSeq) != g.NumNodes() {
		t.Fatalf("degree sequence length %d, want %d", len(res.DegreeSeq), g.NumNodes())
	}
	for i := 1; i < len(res.DegreeSeq); i++ {
		if res.DegreeSeq[i] < res.DegreeSeq[i-1]-1e-9 {
			t.Fatal("released degree sequence not monotone")
		}
	}
}

func TestEstimateTriangleCalibration(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.95, B: 0.55, C: 0.3}, 9, 6)
	res, err := EstimateCtx(nil, g, Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	tri := res.Triangles
	if tri.Beta <= 0 || tri.SmoothSen <= 0 || tri.Scale <= 0 {
		t.Fatalf("calibration fields: %+v", tri)
	}
	wantBeta := 0.1 / (2 * math.Log(2/0.01))
	if math.Abs(tri.Beta-wantBeta) > 1e-12 {
		t.Fatalf("beta = %v, want %v (eps/2 must be used)", tri.Beta, wantBeta)
	}
	if res.Features.Delta != tri.Noisy {
		t.Fatal("features.Delta must equal the noisy triangle release")
	}
}

// Estimator outputs on neighbouring graphs should be statistically
// indistinguishable-ish; as a smoke check, the *calibration* (scale of
// noise) must not collapse to zero on any input.
func TestEstimateNonZeroNoiseScales(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 7, seed)
		res, err := EstimateCtx(nil, g, Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(seed + 10)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles.Scale <= 0 {
			t.Fatalf("seed %d: zero noise scale", seed)
		}
	}
}

func TestEstimateDropsNonpositiveDelta(t *testing.T) {
	// A sparse, triangle-poor graph at tiny epsilon makes a negative
	// noisy triangle count likely; scan seeds for one and check both
	// behaviours on it.
	g := sample(t, skg.Initiator{A: 0.9, B: 0.4, C: 0.1}, 9, 1)
	var dropped *Result
	for seed := uint64(0); seed < 200; seed++ {
		res, err := EstimateCtx(nil, g, Options{Eps: 0.05, Delta: 0.01, Rng: randx.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeltaDropped {
			if res.Features.Delta > 0 {
				t.Fatal("DeltaDropped set although released delta is positive")
			}
			dropped = res
			// Verbatim mode must keep the feature.
			strict, err := EstimateCtx(nil, g, Options{Eps: 0.05, Delta: 0.01, KeepNonpositiveDelta: true, Rng: randx.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			if strict.DeltaDropped {
				t.Fatal("KeepNonpositiveDelta did not disable the drop")
			}
			break
		}
	}
	if dropped == nil {
		t.Fatal("no negative triangle draw in 200 seeds; test setup wrong")
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
