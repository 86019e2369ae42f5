package dpkron_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/experiments"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/linalg"
	"dpkron/internal/optimize"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// cancelledRun returns a Run whose context is already cancelled.
func cancelledRun(workers int) *pipeline.Run {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return pipeline.New(ctx, workers, nil)
}

// TestEveryCtxPathReturnsPromptlyWhenPreCancelled walks every ...Ctx
// entry point with a pre-cancelled context: each must return
// context.Canceled (never a result) well before the work could have
// completed.
func TestEveryCtxPathReturnsPromptlyWhenPreCancelled(t *testing.T) {
	m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	g := must(m.SampleExactCtx(nil, randx.New(42)))
	d, _ := experiments.Lookup("Synthetic")

	cases := []struct {
		name string
		call func(run *pipeline.Run) error
	}{
		{"skg.SampleExactCtx", func(r *pipeline.Run) error {
			_, err := m.SampleExactCtx(r, randx.New(1))
			return err
		}},
		{"skg.SampleBallDropNCtx", func(r *pipeline.Run) error {
			_, err := m.SampleBallDropNCtx(r, randx.New(1), 5000)
			return err
		}},
		{"skg.SampleCtx", func(r *pipeline.Run) error {
			_, err := m.SampleCtx(r, randx.New(1))
			return err
		}},
		{"stats.FeaturesOfCtx", func(r *pipeline.Run) error {
			_, err := stats.FeaturesOfCtx(r, g)
			return err
		}},
		{"stats.HopPlotCtx", func(r *pipeline.Run) error {
			_, err := stats.HopPlotCtx(r, g)
			return err
		}},
		{"stats.TrianglesCtx", func(r *pipeline.Run) error {
			_, err := stats.TrianglesCtx(r, g)
			return err
		}},
		{"anf.HopPlotCtx", func(r *pipeline.Run) error {
			_, err := anf.HopPlotCtx(r, g, anf.Options{Trials: 8, Rng: randx.New(1)})
			return err
		}},
		{"smoothsens.MaxCommonNeighborsCtx", func(r *pipeline.Run) error {
			_, err := smoothsens.MaxCommonNeighborsCtx(r, g)
			return err
		}},
		{"smoothsens.PrivateTrianglesCtx", func(r *pipeline.Run) error {
			_, err := smoothsens.PrivateTrianglesCtx(r, nil, g, 0.2, 0.01, randx.New(1))
			return err
		}},
		{"linalg.ScreeValuesCtx", func(r *pipeline.Run) error {
			_, err := linalg.ScreeValuesCtx(r, g, 16, randx.New(1))
			return err
		}},
		{"linalg.NetworkValuesCtx", func(r *pipeline.Run) error {
			_, err := linalg.NetworkValuesCtx(r, g, randx.New(1))
			return err
		}},
		{"kronmom.FitCtx", func(r *pipeline.Run) error {
			_, err := kronmom.FitCtx(r, must(stats.FeaturesOfCtx(nil, g)), 10, kronmom.Options{Rng: randx.New(1)})
			return err
		}},
		{"kronmom.FitGraphCtx", func(r *pipeline.Run) error {
			_, err := kronmom.FitGraphCtx(r, g, 10, kronmom.Options{Rng: randx.New(1)})
			return err
		}},
		{"kronfit.FitCtx", func(r *pipeline.Run) error {
			_, err := kronfit.FitCtx(r, g, kronfit.Options{K: 10, Rng: randx.New(1)})
			return err
		}},
		{"core.EstimateCtx", func(r *pipeline.Run) error {
			_, err := core.EstimateCtx(r, g, core.Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(1)})
			return err
		}},
		{"experiments.GenerateCtx", func(r *pipeline.Run) error {
			_, err := d.GenerateCtx(r)
			return err
		}},
		{"experiments.RunTable1DatasetsCtx", func(r *pipeline.Run) error {
			_, err := experiments.RunTable1DatasetsCtx(r, experiments.Registry()[:1], experiments.Table1Options{})
			return err
		}},
		{"experiments.RunFigureCtx", func(r *pipeline.Run) error {
			_, err := experiments.RunFigureCtx(r, d, experiments.FigureOptions{})
			return err
		}},
		{"experiments.EpsilonSweepCtx", func(r *pipeline.Run) error {
			_, err := experiments.EpsilonSweepCtx(r, g, 10, []float64{0.5}, 0.01, 1, 1)
			return err
		}},
		{"experiments.SmoothSensGrowthCtx", func(r *pipeline.Run) error {
			_, err := experiments.SmoothSensGrowthCtx(r, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, []int{8, 9}, 0.2, 0.01, 1)
			return err
		}},
		{"experiments.SmoothSensCompareCtx", func(r *pipeline.Run) error {
			_, err := experiments.SmoothSensCompareCtx(r, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, []int{8}, 0.2, 0.01, 1)
			return err
		}},
		{"experiments.DistNormAblationCtx", func(r *pipeline.Run) error {
			_, err := experiments.DistNormAblationCtx(r, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 9, 1)
			return err
		}},
		{"experiments.ModelSelectionCtx", func(r *pipeline.Run) error {
			_, err := experiments.ModelSelectionCtx(r, 1)
			return err
		}},
		{"stats.ClusteringByDegreeCtx", func(r *pipeline.Run) error {
			_, err := stats.ClusteringByDegreeCtx(r, g)
			return err
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			start := time.Now()
			err := tc.call(cancelledRun(workers))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s (workers=%d): err = %v, want context.Canceled", tc.name, workers, err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("%s (workers=%d): took %v on a pre-cancelled context", tc.name, workers, elapsed)
			}
		}
	}
}

// TestMidRunCancellationViaSink cancels deterministically from inside
// the pipeline: the progress sink fires the cancel when a chosen stage
// event arrives, so the cancellation always lands mid-run.
func TestMidRunCancellationViaSink(t *testing.T) {
	m, _ := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	g := must(m.SampleExactCtx(nil, randx.New(42)))

	// Cancel as soon as the triangle-release stage starts: Algorithm 1
	// must abort before the moment fit ever begins.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stages []string
	run := pipeline.New(ctx, 2, func(e pipeline.Event) {
		stages = append(stages, e.Stage)
		if e.Stage == "algorithm1/triangle-release" && e.Frac == 0 {
			cancel()
		}
	})
	_, err := core.EstimateCtx(run, g, core.Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateCtx err = %v, want context.Canceled", err)
	}
	joined := strings.Join(stages, ",")
	if !strings.Contains(joined, "algorithm1/degree-release") {
		t.Errorf("degree-release never started: %v", stages)
	}
	if strings.Contains(joined, "moment-fit/kronmom") {
		t.Errorf("moment fit ran after cancellation: %v", stages)
	}

	// Same shape for KronFit: cancel at the first per-iteration
	// progress event; the fit must not complete all its iterations.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	run2 := pipeline.New(ctx2, 1, func(e pipeline.Event) {
		if e.Stage == "kronfit" && e.Frac > 0 && e.Frac < 1 {
			cancel2()
		}
	})
	_, err = kronfit.FitCtx(run2, g, kronfit.Options{K: 10, Iters: 40, Rng: randx.New(5)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kronfit.FitCtx err = %v, want context.Canceled", err)
	}
}

// TestNelderMeadCtxCancellation covers the optimizer directly: a
// context cancelled from inside the objective stops the descent.
func TestNelderMeadCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	f := func(x []float64) float64 {
		evals++
		if evals == 20 {
			cancel()
		}
		return x[0]*x[0] + x[1]*x[1]
	}
	_, err := optimize.NelderMeadCtx(ctx, f, []float64{5, 5}, optimize.NelderMeadOptions{MaxIter: 10000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if evals > 100 {
		t.Errorf("descent kept evaluating after cancel: %d evals", evals)
	}
	if _, err := optimize.GridSearchCtx(cancelledCtx(), f, []float64{0, 0}, []float64{1, 1}, 50); !errors.Is(err, context.Canceled) {
		t.Errorf("GridSearchCtx pre-cancelled err = %v", err)
	}
	if _, err := optimize.MultiStartCtx(pipeline.New(cancelledCtx(), 1, nil), f, []float64{0, 0}, []float64{1, 1}, 2, 3,
		randx.New(1), optimize.NelderMeadOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MultiStartCtx pre-cancelled err = %v", err)
	}
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
