package dpkron_test

import (
	"math"
	"strings"
	"testing"

	"dpkron"
)

func TestFacadeEndToEnd(t *testing.T) {
	truth := dpkron.Initiator{A: 0.99, B: 0.45, C: 0.25}
	model, err := dpkron.NewModel(truth, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := must(model.SampleCtx(nil, dpkron.NewRand(1)))
	if g.NumNodes() != 1024 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}

	res, err := dpkron.EstimatePrivate(nil, g, dpkron.PrivateOptions{
		Eps: 0.5, Delta: 0.01, Rng: dpkron.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Privacy.Eps != 0.5 || res.Privacy.Delta != 0.01 {
		t.Fatalf("privacy = %v", res.Privacy)
	}
	synth := must(res.Model().SampleCtx(nil, dpkron.NewRand(3)))
	if synth.NumNodes() != g.NumNodes() {
		t.Fatal("synthetic graph node count mismatch")
	}
	// Edge counts should be within a factor of ~2 at this ε and size.
	ratio := float64(synth.NumEdges()) / float64(g.NumEdges())
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("synthetic/original edge ratio = %v", ratio)
	}
}

func TestFacadeBaselines(t *testing.T) {
	model, _ := dpkron.NewModel(dpkron.Initiator{A: 0.9, B: 0.5, C: 0.2}, 9)
	g := must(model.SampleCtx(nil, dpkron.NewRand(4)))
	mom, err := dpkron.FitMoment(nil, g, 0, dpkron.MomentOptions{Rng: dpkron.NewRand(5)})
	if err != nil {
		t.Fatal(err)
	}
	if mom.K != 9 {
		t.Fatalf("inferred k = %d", mom.K)
	}
	mle, err := dpkron.FitMLE(nil, g, dpkron.MLEOptions{Iters: 5, Rng: dpkron.NewRand(6)})
	if err != nil {
		t.Fatal(err)
	}
	if mle.K != 9 {
		t.Fatalf("mle k = %d", mle.K)
	}
	feats, err := dpkron.FitMomentFeatures(nil, must(dpkron.FeaturesOf(nil, g)), 9, dpkron.MomentOptions{Rng: dpkron.NewRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(feats.Init.A - mom.Init.A); diff > 1e-9 {
		t.Fatalf("FitMomentFeatures disagrees with FitMoment: %v", diff)
	}
}

func TestFacadeGraphHelpers(t *testing.T) {
	g, err := dpkron.ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if must(dpkron.Triangles(nil, g)) != 1 {
		t.Fatal("triangle count")
	}
	f := must(dpkron.FeaturesOf(nil, g))
	if f.E != 3 || f.Delta != 1 || f.H != 3 {
		t.Fatalf("features = %+v", f)
	}
	hop := must(dpkron.HopPlot(nil, g))
	if hop[len(hop)-1] != 9 {
		t.Fatalf("hop plot = %v", hop)
	}
	if dd := dpkron.DegreeDistribution(g); len(dd) != 1 || dd[0].Degree != 2 {
		t.Fatalf("degree distribution = %+v", dd)
	}
	if cc := must(dpkron.ClusteringByDegree(nil, g)); len(cc) != 1 || cc[0].Value != 1 {
		t.Fatalf("clustering = %+v", cc)
	}
	sv := must(dpkron.ScreeValues(nil, g, 3, dpkron.NewRand(1)))
	if len(sv) == 0 || math.Abs(sv[0]-2) > 1e-6 {
		t.Fatalf("scree = %v", sv)
	}
	nv := must(dpkron.NetworkValues(nil, g, dpkron.NewRand(2)))
	if len(nv) != 3 || math.Abs(nv[0]-1/math.Sqrt(3)) > 1e-6 {
		t.Fatalf("network values = %v", nv)
	}
	approx := must(dpkron.ApproxHopPlot(nil, g, 64, dpkron.NewRand(3)))
	if len(approx) == 0 {
		t.Fatal("approx hop plot empty")
	}
	b := dpkron.NewBuilder(3)
	b.AddEdge(0, 1)
	if b.Build().NumEdges() != 1 {
		t.Fatal("builder")
	}
	if dpkron.FromEdges(2, [][2]int{{0, 1}}).NumEdges() != 1 {
		t.Fatal("FromEdges")
	}
}
