package kronmom

import (
	"math"
	"testing"

	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

func defaultOpts(seed uint64) Options {
	return Options{Rng: randx.New(seed)}
}

func TestObjectiveZeroAtTruth(t *testing.T) {
	truth := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	m := skg.Model{Init: truth, K: 10}
	obs := m.ExpectedFeatures()
	obj := DefaultObjective()
	if v := obj.Eval(obs, 10, truth); v > 1e-16 {
		t.Fatalf("objective at truth = %v, want ~0", v)
	}
	// And strictly positive away from the truth.
	if v := obj.Eval(obs, 10, skg.Initiator{A: 0.8, B: 0.45, C: 0.25}); v <= 0 {
		t.Fatalf("objective away from truth = %v, want > 0", v)
	}
}

func TestObjectiveDistNormVariants(t *testing.T) {
	obs := stats.Features{E: 100, H: 400, T: 900, Delta: 50}
	init := skg.Initiator{A: 0.9, B: 0.5, C: 0.2}
	seen := map[float64]bool{}
	for _, d := range []Dist{DistSq, DistAbs} {
		for _, n := range []Norm{NormF, NormF2, NormE, NormE2} {
			o := Objective{Dist: d, Norm: n, Features: AllFeatures()}
			v := o.Eval(obs, 7, init)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%v/%v: objective = %v", d, n, v)
			}
			seen[v] = true
		}
	}
	if len(seen) < 6 {
		t.Fatalf("objective variants suspiciously collapsed: %d distinct values", len(seen))
	}
}

func TestObjectiveHandlesDegenerateFeatures(t *testing.T) {
	// Noisy private features can be zero or negative; the objective must
	// stay finite for every variant.
	obs := stats.Features{E: 0, H: -3, T: 0, Delta: -10}
	for _, d := range []Dist{DistSq, DistAbs} {
		for _, n := range []Norm{NormF, NormF2, NormE, NormE2} {
			o := Objective{Dist: d, Norm: n, Features: AllFeatures()}
			v := o.Eval(obs, 5, skg.Initiator{A: 0.5, B: 0.2, C: 0.1})
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v/%v: objective = %v on degenerate features", d, n, v)
			}
		}
	}
}

func TestFitRecoversTruthFromExpectedFeatures(t *testing.T) {
	// Closed loop: features generated by the closed forms themselves
	// should be matched almost exactly.
	cases := []skg.Initiator{
		{A: 0.99, B: 0.45, C: 0.25}, // paper's synthetic source
		{A: 0.9, B: 0.6, C: 0.1},
		{A: 0.95, B: 0.35, C: 0.5}, // non-canonical order exercise below
	}
	for _, truth := range cases {
		truth = truth.Canonical()
		m := skg.Model{Init: truth, K: 12}
		obs := m.ExpectedFeatures()
		est, err := FitCtx(nil, obs, 12, defaultOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		if est.Objective > 1e-6 {
			t.Errorf("%v: residual objective %v", truth, est.Objective)
		}
		if math.Abs(est.Init.A-truth.A) > 0.02 ||
			math.Abs(est.Init.B-truth.B) > 0.02 ||
			math.Abs(est.Init.C-truth.C) > 0.02 {
			t.Errorf("truth %v: recovered %v", truth, est.Init)
		}
	}
}

func TestFitRecoversFromSampledGraph(t *testing.T) {
	// End to end on a realized graph: estimates should land near the
	// generating parameters (sampling noise allows a looser tolerance).
	truth := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	m := skg.Model{Init: truth, K: 11}
	g := must(m.SampleExactCtx(nil, randx.New(5)))
	est, err := FitGraphCtx(nil, g, m.K, defaultOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Init.A-truth.A) > 0.08 ||
		math.Abs(est.Init.B-truth.B) > 0.08 ||
		math.Abs(est.Init.C-truth.C) > 0.12 {
		t.Fatalf("truth %v: recovered %v (objective %v)", truth, est.Init, est.Objective)
	}
}

func TestFitGraphInfersK(t *testing.T) {
	m := skg.Model{Init: skg.Initiator{A: 0.9, B: 0.5, C: 0.3}, K: 8}
	g := must(m.SampleExactCtx(nil, randx.New(3)))
	est, err := FitGraphCtx(nil, g, 0, defaultOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if est.K != 8 {
		t.Fatalf("inferred k = %d, want 8", est.K)
	}
}

func TestKForNodes(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11, 5242: 13, 9877: 14, 6474: 13}
	for n, want := range cases {
		if got := KForNodes(n); got != want {
			t.Errorf("KForNodes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFitRequiresRng(t *testing.T) {
	if _, err := FitCtx(nil, stats.Features{E: 10}, 5, Options{}); err == nil {
		t.Fatal("expected error without Rng")
	}
}

func TestFitRejectsBadK(t *testing.T) {
	if _, err := FitCtx(nil, stats.Features{E: 10}, 0, defaultOpts(1)); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := FitCtx(nil, stats.Features{E: 10}, 31, defaultOpts(1)); err == nil {
		t.Fatal("expected error for k=31")
	}
}

func TestFitCanonicalOutput(t *testing.T) {
	m := skg.Model{Init: skg.Initiator{A: 0.9, B: 0.4, C: 0.3}, K: 10}
	est, err := FitCtx(nil, m.ExpectedFeatures(), 10, defaultOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if est.Init.A < est.Init.C {
		t.Fatalf("estimate not canonical: %v", est.Init)
	}
}

func TestFeatureSubsetThreeOfFour(t *testing.T) {
	// The paper mentions fitting with three of the four features; the
	// degree-derived triple (E, H, T) should still recover parameters
	// from clean expected features reasonably well.
	truth := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	m := skg.Model{Init: truth, K: 12}
	obs := m.ExpectedFeatures()
	opts := defaultOpts(7)
	opts.Objective = Objective{Dist: DistSq, Norm: NormF2, Features: FeatureSet{E: true, H: true, T: true}}
	est, err := FitCtx(nil, obs, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Objective > 1e-6 {
		t.Fatalf("residual objective %v", est.Objective)
	}
	// Without triangles identifiability is weaker; just require the
	// expected features of the fit to match the observed ones closely.
	fit := skg.Model{Init: est.Init, K: 12}.ExpectedFeatures()
	for _, pair := range [][2]float64{{fit.E, obs.E}, {fit.H, obs.H}, {fit.T, obs.T}} {
		if math.Abs(pair[0]-pair[1]) > 0.01*math.Abs(pair[1]) {
			t.Fatalf("feature mismatch: fit %v vs obs %v", pair[0], pair[1])
		}
	}
}

func TestDistNormStrings(t *testing.T) {
	if DistSq.String() != "DistSq" || DistAbs.String() != "DistAbs" {
		t.Fatal("Dist strings wrong")
	}
	if NormF.String() != "NormF" || NormF2.String() != "NormF2" || NormE.String() != "NormE" || NormE2.String() != "NormE2" {
		t.Fatal("Norm strings wrong")
	}
	if Dist(9).String() == "" || Norm(9).String() == "" {
		t.Fatal("unknown values should still format")
	}
}

func TestFeatureSetCount(t *testing.T) {
	if AllFeatures().Count() != 4 {
		t.Fatal("AllFeatures count")
	}
	if (FeatureSet{E: true, Delta: true}).Count() != 2 {
		t.Fatal("subset count")
	}
	if (FeatureSet{}).Count() != 0 {
		t.Fatal("empty count")
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
