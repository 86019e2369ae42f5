package experiments

import (
	"fmt"
	"math"
	"strings"

	"dpkron/internal/graph"
	"dpkron/internal/kronmom"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// ModelSelRow reports how well a 2×2 KronMom fit reproduces the features
// of a graph generated from a *larger* initiator — the paper's §3.3
// justification for fixing N1 = 2 ("having N1 > 2 does not accrue a
// significant advantage as far as matching of some statistics is
// concerned").
type ModelSelRow struct {
	SourceN1 int
	Nodes    int
	Fit      skg.Initiator
	// RelErr per feature of the 2×2 fit's expected counts against the
	// observed counts of the N1-generated graph.
	RelErrE, RelErrH, RelErrT, RelErrDelta float64
}

// ModelSelectionCtx generates one graph per source initiator (2×2 truth
// and a 3×3 initiator) and fits the 2×2 moment estimator to both; the
// 2×2 sample, the feature counts and the fits run under run.
func ModelSelectionCtx(run *pipeline.Run, seed uint64) ([]ModelSelRow, error) {
	var rows []ModelSelRow

	// Source 1: a true 2×2 SKG (control).
	binary := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, K: 11}
	g2, err := binary.SampleExactCtx(run, randx.New(seed))
	if err != nil {
		return nil, err
	}
	row, err := fit2x2Row(run, 2, g2, 11, seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// Source 2: a 3×3 initiator at a comparable node count (3^7 = 2187).
	theta3 := [][]float64{
		{0.98, 0.58, 0.22},
		{0.58, 0.45, 0.34},
		{0.22, 0.34, 0.52},
	}
	gm, err := skg.NewGeneralModel(theta3, 7)
	if err != nil {
		return nil, err
	}
	if err := run.Err(); err != nil {
		return nil, err
	}
	g3 := gm.SampleExact(randx.New(seed + 1))
	// Fit a 2×2 model on 2^11 = 2048 ≈ 2187 slots.
	row, err = fit2x2Row(run, 3, g3, 11, seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

func fit2x2Row(run *pipeline.Run, srcN1 int, g *graph.Graph, k int, seed uint64) (ModelSelRow, error) {
	obs, err := stats.FeaturesOfCtx(run, g)
	if err != nil {
		return ModelSelRow{}, err
	}
	est, err := kronmom.FitCtx(run, obs, k, kronmom.Options{Rng: randx.New(seed + 77)})
	if err != nil {
		return ModelSelRow{}, err
	}
	exp := skg.Model{Init: est.Init, K: k}.ExpectedFeatures()
	rel := func(e, o float64) float64 {
		if math.Abs(o) < 1e-9 {
			return 0
		}
		return math.Abs(e-o) / math.Abs(o)
	}
	return ModelSelRow{
		SourceN1:    srcN1,
		Nodes:       g.NumNodes(),
		Fit:         est.Init,
		RelErrE:     rel(exp.E, obs.E),
		RelErrH:     rel(exp.H, obs.H),
		RelErrT:     rel(exp.T, obs.T),
		RelErrDelta: rel(exp.Delta, obs.Delta),
	}, nil
}

// RenderModelSelection formats the study.
func RenderModelSelection(rows []ModelSelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-7s %-22s %-8s %-8s %-8s %-8s\n",
		"sourceN1", "nodes", "2x2 fit (a/b/c)", "errE", "errH", "errT", "errTri")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d %-7d %-22s %-8.4f %-8.4f %-8.4f %-8.4f\n",
			r.SourceN1, r.Nodes, triple(r.Fit), r.RelErrE, r.RelErrH, r.RelErrT, r.RelErrDelta)
	}
	return b.String()
}
