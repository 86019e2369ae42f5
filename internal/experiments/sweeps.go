package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"dpkron/internal/core"
	"dpkron/internal/graph"
	"dpkron/internal/kronmom"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// SweepRow is one ε point of the privacy–utility sweep: how far the
// private estimate lands from the non-private KronMom estimate on the
// same graph, averaged over trials.
type SweepRow struct {
	Eps            float64
	MeanParamDiff  float64 // mean over trials of MaxAbsDiff(private, kronmom)
	MeanFeatureErr float64 // mean relative L1 error of private features
}

// EpsilonSweepCtx measures utility as a function of ε on the given
// graph under a pipeline Run. The (ε, trial) grid runs concurrently on
// run's worker budget; every trial seeds its own generator from
// (seed, ε, trial) and the per-ε averages reduce trials in index order,
// so the rows are identical for every worker count. The cell fan-out
// checks the context between cells, each cell's estimate checks it
// internally, a "sweep" stage reports the completed-cell fraction, and
// a cancelled run returns run.Err().
func EpsilonSweepCtx(run *pipeline.Run, g *graph.Graph, k int, epsilons []float64, delta float64, trials int, seed uint64) ([]SweepRow, error) {
	done := run.Stage("sweep")
	base, err := kronmom.FitGraphCtx(run, g, k, kronmom.Options{Rng: randx.New(seed)})
	if err != nil {
		return nil, err
	}
	exact, err := stats.FeaturesOfCtx(run, g)
	if err != nil {
		return nil, err
	}
	type cell struct {
		pd, fe float64
		err    error
	}
	cells := make([]cell, len(epsilons)*trials)
	// The grid almost always has at least as many cells as workers, so
	// the budget goes to the cell level: each Estimate runs
	// single-goroutine rather than multiplying the two fan-outs.
	var completed atomic.Int64
	if err := parallel.Run(run.Context(), run.Workers(), len(cells), func(i int) {
		eps := epsilons[i/trials]
		t := i % trials
		res, err := core.EstimateCtx(pipeline.New(run.Context(), 1, nil), g, core.Options{
			Eps: eps, Delta: delta, K: k,
			Rng: randx.New(seed + uint64(t)*7919 + uint64(math.Float64bits(eps))),
		})
		if err != nil {
			cells[i].err = err
			return
		}
		cells[i] = cell{pd: MaxAbsDiff(res.Init, base.Init), fe: relL1(res.Features, exact)}
		run.Progress("sweep", float64(completed.Add(1))/float64(len(cells)))
	}); err != nil {
		return nil, err
	}
	var rows []SweepRow
	for e := range epsilons {
		var pd, fe float64
		for t := 0; t < trials; t++ {
			c := cells[e*trials+t]
			if c.err != nil {
				return nil, c.err
			}
			pd += c.pd
			fe += c.fe
		}
		rows = append(rows, SweepRow{
			Eps:            epsilons[e],
			MeanParamDiff:  pd / float64(trials),
			MeanFeatureErr: fe / float64(trials),
		})
	}
	done()
	return rows, nil
}

func relL1(got, want stats.Features) float64 {
	total := 0.0
	n := 0
	for _, p := range [][2]float64{{got.E, want.E}, {got.H, want.H}, {got.T, want.T}, {got.Delta, want.Delta}} {
		if math.Abs(p[1]) > 1e-9 {
			total += math.Abs(p[0]-p[1]) / math.Abs(p[1])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// RenderSweep formats sweep rows.
func RenderSweep(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %-18s  %-18s\n", "eps", "param diff vs mom", "feature rel err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.3f  %-18.4f  %-18.4f\n", r.Eps, r.MeanParamDiff, r.MeanFeatureErr)
	}
	return b.String()
}

// SSGrowthRow is one k point of the smooth-sensitivity growth study
// (the paper's §5 preliminary observation that SS_Δ grows slowly with
// graph size in the SKG model).
type SSGrowthRow struct {
	K               int
	N               int
	Edges           int
	Triangles       int64
	LocalSens       float64
	SmoothSen       float64
	NoiseOverSignal float64 // (2·SS/ε) / Δ, the relative noise magnitude
}

// SmoothSensGrowthCtx samples one SKG per k and reports how the smooth
// sensitivity of the triangle count scales, under a pipeline Run: the
// context is checked between k points (and inside each sample and
// scan), and an "ss-growth" stage reports per-k progress.
func SmoothSensGrowthCtx(run *pipeline.Run, init skg.Initiator, ks []int, eps, delta float64, seed uint64) ([]SSGrowthRow, error) {
	done := run.Stage("ss-growth")
	beta := smoothsens.BetaFor(eps/2, delta)
	var rows []SSGrowthRow
	for i, k := range ks {
		if err := run.Err(); err != nil {
			return nil, err
		}
		run.Progress("ss-growth", float64(i)/float64(len(ks)))
		m, err := skg.NewModel(init, k)
		if err != nil {
			return nil, err
		}
		g, err := m.SampleCtx(run, randx.New(seed+uint64(k)))
		if err != nil {
			return nil, err
		}
		tri, err := stats.TrianglesCtx(run, g)
		if err != nil {
			return nil, err
		}
		ls, err := smoothsens.MaxCommonNeighborsCtx(run, g)
		if err != nil {
			return nil, err
		}
		ss := smoothsens.SmoothFromLS(ls, g.NumNodes(), beta)
		row := SSGrowthRow{
			K: k, N: g.NumNodes(), Edges: g.NumEdges(),
			Triangles: tri, LocalSens: float64(ls), SmoothSen: ss,
		}
		if tri > 0 {
			row.NoiseOverSignal = (2 * ss / (eps / 2)) / float64(tri)
		}
		rows = append(rows, row)
	}
	done()
	return rows, nil
}

// RenderSSGrowth formats growth rows.
func RenderSSGrowth(rows []SSGrowthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-8s %-9s %-11s %-9s %-10s %-12s\n",
		"k", "n", "edges", "triangles", "LS", "SS_beta", "noise/Delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-8d %-9d %-11d %-9.0f %-10.2f %-12.4f\n",
			r.K, r.N, r.Edges, r.Triangles, r.LocalSens, r.SmoothSen, r.NoiseOverSignal)
	}
	return b.String()
}

// AblationRow is one Dist×Norm combination's recovery error on the
// synthetic dataset (Gleich–Owen's robustness comparison, which led
// them — and the paper — to DistSq/NormF²).
type AblationRow struct {
	Dist    kronmom.Dist
	Norm    kronmom.Norm
	Err     float64 // MaxAbsDiff(fit, truth)
	ObjName string
}

// DistNormAblationCtx fits every objective variant on a synthetic SKG
// with known parameters; the sample, the feature count and every fit
// run under run.
func DistNormAblationCtx(run *pipeline.Run, truth skg.Initiator, k int, seed uint64) ([]AblationRow, error) {
	m, err := skg.NewModel(truth, k)
	if err != nil {
		return nil, err
	}
	g, err := m.SampleCtx(run, randx.New(seed))
	if err != nil {
		return nil, err
	}
	feats, err := stats.FeaturesOfCtx(run, g)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, d := range []kronmom.Dist{kronmom.DistSq, kronmom.DistAbs} {
		for _, n := range []kronmom.Norm{kronmom.NormF, kronmom.NormF2, kronmom.NormE, kronmom.NormE2} {
			est, err := kronmom.FitCtx(run, feats, k, kronmom.Options{
				Objective: kronmom.Objective{Dist: d, Norm: n, Features: kronmom.AllFeatures()},
				Rng:       randx.New(seed + 99),
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Dist: d, Norm: n,
				Err:     MaxAbsDiff(est.Init, truth.Canonical()),
				ObjName: d.String() + "/" + n.String(),
			})
		}
	}
	return rows, nil
}

// RenderAblation formats ablation rows.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s  %-10s\n", "objective", "max |err|")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s  %-10.4f\n", r.ObjName, r.Err)
	}
	return b.String()
}
