package experiments

import (
	"fmt"
	"strings"

	"dpkron/internal/core"
	"dpkron/internal/graph"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// Table1Options configures the Table 1 regeneration. The paper's caption
// says (ε, δ) = (0.2, 0.01); the body text of §4.2 mentions (0.2, 0.1).
// The caption values are the defaults.
type Table1Options struct {
	Eps   float64 // default 0.2
	Delta float64 // default 0.01
	Seed  uint64  // default 7
	// KronFitIters overrides the MLE iteration budget (default 60).
	KronFitIters int
}

func (o *Table1Options) fill() {
	if o.Eps == 0 {
		o.Eps = 0.2
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.KronFitIters == 0 {
		o.KronFitIters = 60
	}
}

// Table1Row is one dataset's comparison of the three estimators.
type Table1Row struct {
	Dataset Dataset
	N, E    int // stand-in size
	KronFit skg.Initiator
	KronMom skg.Initiator
	Private skg.Initiator
}

// RunTable1RowCtx computes one row on the given (already generated)
// graph under a pipeline Run: the three estimators run under run's
// context and worker budget, each emitting its stage events under a
// "table1/<dataset>" prefix.
func RunTable1RowCtx(run *pipeline.Run, d Dataset, g *graph.Graph, opts Table1Options) (Table1Row, error) {
	opts.fill()
	rng := randx.New(opts.Seed ^ d.Seed)
	sub := run.Sub("table1/" + d.Name)

	kf, err := kronfit.FitCtx(sub, g, kronfit.Options{K: d.K, Iters: opts.KronFitIters, Rng: rng.Split()})
	if err != nil {
		return Table1Row{}, fmt.Errorf("kronfit on %s: %w", d.Name, err)
	}
	km, err := kronmom.FitGraphCtx(sub, g, d.K, kronmom.Options{Rng: rng.Split()})
	if err != nil {
		return Table1Row{}, fmt.Errorf("kronmom on %s: %w", d.Name, err)
	}
	pr, err := core.EstimateCtx(sub, g, core.Options{
		Eps: opts.Eps, Delta: opts.Delta, K: d.K, Rng: rng.Split(),
	})
	if err != nil {
		return Table1Row{}, fmt.Errorf("private on %s: %w", d.Name, err)
	}
	return Table1Row{
		Dataset: d,
		N:       g.NumNodes(),
		E:       g.NumEdges(),
		KronFit: kf.Init,
		KronMom: km.Init,
		Private: pr.Init,
	}, nil
}

// RunTable1DatasetsCtx computes one table row per dataset (Registry()
// for the full table) under a pipeline Run. The rows are independent (each derives its randomness
// from its dataset seed), so they run concurrently with run's worker
// budget divided between the row fan-out and each row's internal
// sharding; results keep dataset order and are identical for every
// worker count. The row fan-out checks the context between datasets,
// each row's estimators check it internally, and a cancelled run
// returns run.Err().
func RunTable1DatasetsCtx(run *pipeline.Run, reg []Dataset, opts Table1Options) ([]Table1Row, error) {
	w := run.Workers()
	rowWorkers := 1
	if len(reg) > 0 && w/len(reg) > 1 {
		rowWorkers = w / len(reg)
	}
	rows := make([]Table1Row, len(reg))
	if err := parallel.Run(run.Context(), w, len(reg), func(i int) error {
		rowRun := run.WithWorkers(rowWorkers)
		g, err := reg[i].GenerateCtx(rowRun)
		if err != nil {
			return err
		}
		rows[i], err = RunTable1RowCtx(rowRun, reg[i], g, opts)
		return err
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 formats rows side by side with the paper's values.
func RenderTable1(rows []Table1Row, opts Table1Options) string {
	opts.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: parameter estimates (a, b, c), eps=%g delta=%g\n", opts.Eps, opts.Delta)
	fmt.Fprintf(&b, "%-14s %-11s  %-22s  %-22s  %-22s\n", "network", "N/E", "KronFit", "KronMom", "Private")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-11s  %-22s  %-22s  %-22s\n",
			r.Dataset.Name,
			fmt.Sprintf("%d/%d", r.N, r.E),
			triple(r.KronFit), triple(r.KronMom), triple(r.Private))
		fmt.Fprintf(&b, "%-14s %-11s  %-22s  %-22s  %-22s\n",
			"  (paper)", "",
			triple(r.Dataset.PaperKronFit), triple(r.Dataset.PaperKronMom), triple(r.Dataset.PaperPrivate))
	}
	return b.String()
}

func triple(i skg.Initiator) string {
	return fmt.Sprintf("%.4f/%.4f/%.4f", i.A, i.B, i.C)
}

// MaxAbsDiff returns the largest absolute componentwise difference
// between two initiators — the comparison metric used in EXPERIMENTS.md.
func MaxAbsDiff(x, y skg.Initiator) float64 {
	m := abs(x.A - y.A)
	if d := abs(x.B - y.B); d > m {
		m = d
	}
	if d := abs(x.C - y.C); d > m {
		m = d
	}
	return m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
