package dpkron_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"dpkron"
	"dpkron/internal/degseq"
	"dpkron/internal/dp"
	"dpkron/internal/experiments"
	"dpkron/internal/kronmom"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// TestPipelineRoundTrip exercises the full paper workflow: sample →
// privately estimate → publish → regenerate → compare statistics.
func TestPipelineRoundTrip(t *testing.T) {
	// k=12 keeps the triangle count (~2500) well above the smooth-
	// sensitivity noise scale (~840 at ε/2=0.1), the regime the paper
	// evaluates; at k=11 the triangle term is noise-dominated.
	truth := dpkron.Initiator{A: 0.99, B: 0.55, C: 0.35}
	model, err := dpkron.NewModel(truth, 12)
	if err != nil {
		t.Fatal(err)
	}
	original := must(model.SampleCtx(nil, dpkron.NewRand(1)))
	res, err := dpkron.EstimatePrivate(nil, original, dpkron.PrivateOptions{
		Eps: 0.2, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Average feature counts over several synthetic samples.
	var e, h, d float64
	const runs = 10
	for i := 0; i < runs; i++ {
		f := must(dpkron.FeaturesOf(nil, must(res.Model().SampleCtx(nil, dpkron.NewRand(uint64(10+i))))))
		e += f.E
		h += f.H
		d += f.Delta
	}
	orig := must(dpkron.FeaturesOf(nil, original))
	if rel := math.Abs(e/runs-orig.E) / orig.E; rel > 0.25 {
		t.Errorf("synthetic edges off by %.0f%%", rel*100)
	}
	if rel := math.Abs(h/runs-orig.H) / orig.H; rel > 0.4 {
		t.Errorf("synthetic hairpins off by %.0f%%", rel*100)
	}
	if rel := math.Abs(d/runs-orig.Delta) / orig.Delta; rel > 0.6 {
		t.Errorf("synthetic triangles off by %.0f%%", rel*100)
	}
}

// TestWriteReadEstimateStable runs the estimator on a graph serialized
// through the edge-list format, confirming I/O does not perturb results.
func TestWriteReadEstimateStable(t *testing.T) {
	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.9, B: 0.5, C: 0.3}, 9)
	g := must(model.SampleCtx(nil, dpkron.NewRand(3)))
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dpkron.ReadEdgeList(&buf, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	a, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{Eps: 1, Delta: 0.05, Rng: dpkron.NewRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dpkron.EstimatePrivate(nil, back, dpkron.PrivateOptions{Eps: 1, Delta: 0.05, Rng: dpkron.NewRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Init != b.Init {
		t.Fatalf("estimates diverged after IO round trip: %v vs %v", a.Init, b.Init)
	}
}

// TestQuickObjectiveSymmetricUnderSwap: the SKG distribution is
// invariant under swapping a and c (relabelling initiator nodes), so the
// moment objective must be too.
func TestQuickObjectiveSymmetricUnderSwap(t *testing.T) {
	obs := stats.Features{E: 5000, H: 60000, T: 400000, Delta: 800}
	obj := kronmom.DefaultObjective()
	f := func(ar, br, cr uint16) bool {
		a := float64(ar) / 65535
		b := float64(br) / 65535
		c := float64(cr) / 65535
		v1 := obj.Eval(obs, 10, skg.Initiator{A: a, B: b, C: c})
		v2 := obj.Eval(obs, 10, skg.Initiator{A: c, B: b, C: a})
		return math.Abs(v1-v2) <= 1e-9*(1+math.Abs(v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTriadicClosurePreservesAndAdds checks the densification pass used
// by the dataset stand-ins.
func TestTriadicClosurePreservesAndAdds(t *testing.T) {
	m := skg.Model{Init: skg.Initiator{A: 0.95, B: 0.5, C: 0.3}, K: 9}
	g := must(m.SampleExactCtx(nil, randx.New(4)))
	before := must(stats.TrianglesCtx(nil, g))
	dens := experiments.TriadicClosure(g, 500, randx.New(5))
	if dens.NumEdges() != g.NumEdges()+500 {
		t.Fatalf("edges: %d -> %d, want +500", g.NumEdges(), dens.NumEdges())
	}
	// Every original edge must survive.
	g.ForEachEdge(func(u, v int) {
		if !dens.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost", u, v)
		}
	})
	after := must(stats.TrianglesCtx(nil, dens))
	if after <= before {
		t.Fatalf("triangles did not increase: %d -> %d", before, after)
	}
	// Closure edges close wedges, so triangles must grow at least one
	// per added edge.
	if after-before < 500 {
		t.Fatalf("closure added %d triangles for 500 wedge-closing edges", after-before)
	}
	if err := dens.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrivacyBudgetNeverUnderReported: whatever options are used, the
// reported budget equals what the mechanisms spent.
func TestPrivacyBudgetNeverUnderReported(t *testing.T) {
	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.9, B: 0.5, C: 0.2}, 8)
	g := must(model.SampleCtx(nil, dpkron.NewRand(5)))
	for _, eps := range []float64{0.1, 0.5, 2} {
		res, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{Eps: eps, Delta: 0.02, Rng: dpkron.NewRand(6)})
		if err != nil {
			t.Fatal(err)
		}
		var sum dpkron.Budget
		for _, c := range res.Charges {
			sum = dp.Compose(sum, c.Budget())
		}
		if math.Abs(sum.Eps-res.Privacy.Eps) > 1e-12 || math.Abs(sum.Delta-res.Privacy.Delta) > 1e-12 {
			t.Fatalf("itemized %v != total %v", sum, res.Privacy)
		}
		if math.Abs(res.Privacy.Eps-eps) > 1e-12 {
			t.Fatalf("reported eps %v != requested %v", res.Privacy.Eps, eps)
		}
	}
}

// TestDegreeFeatureErrorShrinksWithGraphSize: the relative error of the
// private degree-derived edge count should decrease with n at fixed ε
// (the concentration the paper relies on).
func TestDegreeFeatureErrorShrinksWithGraphSize(t *testing.T) {
	init := skg.Initiator{A: 0.99, B: 0.55, C: 0.35}
	relErrAt := func(k int) float64 {
		m := skg.Model{Init: init, K: k}
		g := must(m.SampleCtx(nil, randx.New(uint64(k))))
		exact := float64(g.NumEdges())
		var total float64
		const trials = 20
		for i := 0; i < trials; i++ {
			d := degseq.Private(g, 0.1, randx.New(uint64(1000*k+i)))
			f := stats.FeaturesFromDegrees(d)
			total += math.Abs(f.E-exact) / exact
		}
		return total / trials
	}
	small, large := relErrAt(8), relErrAt(12)
	if large >= small {
		t.Fatalf("edge rel err did not shrink with size: k=8 %v vs k=12 %v", small, large)
	}
}

// TestSmoothSensCaps: on the complete graph, LS and SS hit the n-2 cap.
func TestSmoothSensCaps(t *testing.T) {
	g := dpkron.FromEdges(8, nil)
	_ = g
	kn := completeGraph(10)
	if ls := must(smoothsens.MaxCommonNeighborsCtx(nil, kn)); ls != 8 {
		t.Fatalf("LS(K10) = %v, want 8", ls)
	}
	if ss := must(smoothsens.SmoothCtx(nil, kn, 0.5)); math.Abs(ss-8) > 1e-12 {
		t.Fatalf("SS(K10) = %v, want 8 (capped)", ss)
	}
}

func completeGraph(n int) *dpkron.Graph {
	b := dpkron.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
