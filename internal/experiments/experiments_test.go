package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpkron/internal/skg"
)

func TestRegistryWellFormed(t *testing.T) {
	reg := Registry()
	if len(reg) != 4 {
		t.Fatalf("registry has %d datasets, want 4", len(reg))
	}
	names := map[string]bool{}
	for _, d := range reg {
		if err := d.Source.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if d.K < 10 || d.K > 14 {
			t.Errorf("%s: K = %d out of the paper's range", d.Name, d.K)
		}
		if names[d.Name] {
			t.Errorf("duplicate dataset name %s", d.Name)
		}
		names[d.Name] = true
	}
	if !names["Synthetic"] || !names["CA-GrQc-like"] {
		t.Fatal("expected datasets missing")
	}
}

func TestLookup(t *testing.T) {
	d, err := Lookup("Synthetic")
	if err != nil || d.Name != "Synthetic" {
		t.Fatalf("Lookup failed: %v %v", d, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestDatasetGenerateDeterministic(t *testing.T) {
	// Use a scaled-down copy so the test stays fast.
	d := Dataset{Name: "small", Source: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 8, Seed: 5}
	g1 := must(d.GenerateCtx(nil))
	g2 := must(d.GenerateCtx(nil))
	if !g1.Equal(g2) {
		t.Fatal("Generate is not deterministic")
	}
	if g1.NumNodes() != 256 {
		t.Fatalf("nodes = %d", g1.NumNodes())
	}
}

func smallDataset() Dataset {
	return Dataset{
		Name:         "small-synth",
		Source:       skg.Initiator{A: 0.99, B: 0.45, C: 0.25},
		K:            9,
		Seed:         55,
		PaperKronFit: skg.Initiator{A: 0.95, B: 0.47, C: 0.25},
		PaperKronMom: skg.Initiator{A: 0.99, B: 0.54, C: 0.24},
		PaperPrivate: skg.Initiator{A: 0.99, B: 0.53, C: 0.25},
		TrueInit:     true,
	}
}

func TestRunTable1RowShape(t *testing.T) {
	d := smallDataset()
	g := must(d.GenerateCtx(nil))
	row, err := RunTable1RowCtx(nil, d, g, Table1Options{KronFitIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's structural claim: the private estimate stays close to
	// the non-private moment estimate.
	if diff := MaxAbsDiff(row.Private, row.KronMom); diff > 0.25 {
		t.Errorf("Private %v vs KronMom %v: diff %v", row.Private, row.KronMom, diff)
	}
	// And on a true SKG, the moment estimate recovers the generator.
	if diff := MaxAbsDiff(row.KronMom, d.Source); diff > 0.15 {
		t.Errorf("KronMom %v vs truth %v: diff %v", row.KronMom, d.Source, diff)
	}
	for _, init := range []skg.Initiator{row.KronFit, row.KronMom, row.Private} {
		if err := init.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	d := smallDataset()
	rows := []Table1Row{{
		Dataset: d, N: 512, E: 1000,
		KronFit: skg.Initiator{A: 0.9, B: 0.5, C: 0.2},
		KronMom: skg.Initiator{A: 0.99, B: 0.45, C: 0.25},
		Private: skg.Initiator{A: 0.98, B: 0.46, C: 0.24},
	}}
	out := RenderTable1(rows, Table1Options{})
	for _, want := range []string{"small-synth", "KronMom", "0.9900", "(paper)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigureSmall(t *testing.T) {
	d := smallDataset()
	res, err := RunFigureCtx(nil, d, FigureOptions{ExpectedRuns: 3, KronFitIters: 10, ScreeRank: 12, ExactHopPlot: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range PanelNames {
		if len(res.Original.Panel(panel).X) == 0 {
			t.Errorf("original panel %q empty", panel)
		}
		for _, name := range EstimatorNames {
			if len(res.Single[name].Panel(panel).X) == 0 {
				t.Errorf("single %s panel %q empty", name, panel)
			}
			if len(res.Expected[name].Panel(panel).X) == 0 {
				t.Errorf("expected %s panel %q empty", name, panel)
			}
		}
	}
	// Edge counts of the synthetic graphs should be within 2x of the
	// original (the estimators are fitted to it).
	origEdges := res.Original.DegreeDist
	_ = origEdges
	text := RenderFigure(res, 8)
	for _, want := range []string{"hop plot", "degree distribution", "scree", "network value", "clustering", "Original", "E[KronMom]"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure render missing %q", want)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "panel,series,x,y\n") {
		t.Fatal("CSV header missing")
	}
	if strings.Count(buf.String(), "\n") < 50 {
		t.Fatalf("CSV suspiciously short:\n%s", buf.String())
	}
}

func TestEpsilonSweepMonotoneTrend(t *testing.T) {
	d := smallDataset()
	g := must(d.GenerateCtx(nil))
	rows, err := EpsilonSweepCtx(nil, g, d.K, []float64{0.05, 0.5, 5}, 0.01, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More budget, less error (allow slack between adjacent points but
	// the ends must order correctly).
	if rows[0].MeanFeatureErr <= rows[2].MeanFeatureErr {
		t.Errorf("feature error did not shrink with eps: %+v", rows)
	}
	out := RenderSweep(rows)
	if !strings.Contains(out, "eps") {
		t.Fatal("sweep render missing header")
	}
}

func TestSmoothSensGrowth(t *testing.T) {
	rows, err := SmoothSensGrowthCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, []int{6, 7, 8, 9}, 0.2, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.N != 1<<r.K {
			t.Errorf("row %d: n mismatch", i)
		}
		if r.SmoothSen < r.LocalSens {
			t.Errorf("row %d: SS < LS", i)
		}
	}
	// The paper's observation: noise/signal shrinks as the graph grows.
	if rows[0].NoiseOverSignal <= rows[len(rows)-1].NoiseOverSignal {
		t.Errorf("noise/signal did not shrink with size: %+v", rows)
	}
	out := RenderSSGrowth(rows)
	if !strings.Contains(out, "SS_beta") {
		t.Fatal("render missing header")
	}
}

func TestDistNormAblation(t *testing.T) {
	rows, err := DistNormAblationCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 9, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// The recommended DistSq/NormF2 must be among the reasonable ones.
	var sqF2 float64 = math.NaN()
	best := math.Inf(1)
	for _, r := range rows {
		if r.ObjName == "DistSq/NormF2" {
			sqF2 = r.Err
		}
		if r.Err < best {
			best = r.Err
		}
	}
	if math.IsNaN(sqF2) {
		t.Fatal("DistSq/NormF2 row missing")
	}
	if sqF2 > best+0.2 {
		t.Errorf("DistSq/NormF2 err %v far from best %v", sqF2, best)
	}
	out := RenderAblation(rows)
	if !strings.Contains(out, "DistAbs/NormE2") {
		t.Fatal("render missing variant")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	x := skg.Initiator{A: 1, B: 0.5, C: 0}
	y := skg.Initiator{A: 0.9, B: 0.8, C: 0.05}
	if got := MaxAbsDiff(x, y); math.Abs(got-0.3) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %v, want 0.3", got)
	}
}

func TestSampleIndices(t *testing.T) {
	idx := sampleIndices(100, 5)
	if len(idx) != 5 || idx[0] != 0 || idx[4] != 99 {
		t.Fatalf("sampleIndices = %v", idx)
	}
	idx = sampleIndices(3, 10)
	if len(idx) != 3 {
		t.Fatalf("sampleIndices small = %v", idx)
	}
}

func TestLogRanks(t *testing.T) {
	r := logRanks(1000, 10)
	if len(r) == 0 || r[0] != 0 || r[len(r)-1] != 999 {
		t.Fatalf("logRanks = %v", r)
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatalf("logRanks not increasing: %v", r)
		}
	}
}

func TestSmoothSensCompare(t *testing.T) {
	rows, err := SmoothSensCompareCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, []int{7, 8, 9}, 0.2, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.N != 1<<r.K {
			t.Errorf("row %d: n mismatch", i)
		}
		if r.SSSkg < r.LSSkg || r.SSEr < r.LSEr {
			t.Errorf("row %d: smooth sensitivity below local", i)
		}
		// The SKG's heavy-tailed structure yields larger local
		// sensitivity than the degree-homogeneous ER graph of the same
		// density (hubs share many neighbours).
		if r.LSSkg < r.LSEr {
			t.Logf("row %d: LS(skg)=%v < LS(er)=%v (unusual but possible)", i, r.LSSkg, r.LSEr)
		}
	}
	out := RenderSSCompare(rows)
	if !strings.Contains(out, "SS(er)") {
		t.Fatal("render missing header")
	}
}

func TestModelSelection(t *testing.T) {
	rows, err := ModelSelectionCtx(nil, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].SourceN1 != 2 || rows[1].SourceN1 != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// The control (true 2x2 source) must fit essentially perfectly.
	if rows[0].RelErrE > 0.02 || rows[0].RelErrH > 0.05 {
		t.Errorf("control fit poor: %+v", rows[0])
	}
	// The paper's Section 3.3 claim: a 2x2 fit still matches the
	// feature counts of a 3x3-generated graph reasonably well.
	if rows[1].RelErrE > 0.25 || rows[1].RelErrH > 0.4 {
		t.Errorf("3x3-source fit unexpectedly poor: %+v", rows[1])
	}
	out := RenderModelSelection(rows)
	if !strings.Contains(out, "sourceN1") {
		t.Fatal("render missing header")
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
