package experiments

import (
	"fmt"
	"math"
	"sort"

	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/graph"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/linalg"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// Series is one plotted curve: paired X/Y samples.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// GraphStats bundles the five statistics of the paper's figure panels
// for one graph: (a) hop plot, (b) degree distribution, (c) scree plot,
// (d) network values, (e) average clustering coefficient by degree.
type GraphStats struct {
	HopPlot    Series
	DegreeDist Series
	Scree      Series
	NetValues  Series
	Clustering Series
}

// FigureOptions configures a figure regeneration.
type FigureOptions struct {
	Eps   float64 // default 0.2
	Delta float64 // default 0.01
	Seed  uint64  // default 11
	// ExpectedRuns averages statistics over this many synthetic
	// realizations per estimator (the paper's "Expected" curves in
	// Figure 1). 0 disables the expected curves.
	ExpectedRuns int
	// ScreeRank is the number of leading singular values (default 48).
	ScreeRank int
	// KronFitIters overrides the MLE iteration budget (default 60).
	KronFitIters int
	// ExactHopPlot forces all-source BFS instead of ANF sketches for
	// single realizations (slower, exact).
	ExactHopPlot bool
}

func (o *FigureOptions) fill() {
	if o.Eps == 0 {
		o.Eps = 0.2
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	if o.ScreeRank == 0 {
		o.ScreeRank = 48
	}
	if o.KronFitIters == 0 {
		o.KronFitIters = 60
	}
}

// FigureResult is one regenerated figure: the original graph's
// statistics overlaid with one synthetic realization per estimator and,
// optionally, expected statistics over many realizations.
type FigureResult struct {
	Dataset   Dataset
	Estimates map[string]skg.Initiator // estimator name -> fitted initiator
	Original  GraphStats
	Single    map[string]GraphStats // one realization per estimator
	Expected  map[string]GraphStats // averaged over ExpectedRuns (may be nil)
}

// EstimatorNames orders the estimators as in the paper's legends.
var EstimatorNames = []string{"KronFit", "KronMom", "Private"}

// RunFigureCtx regenerates one figure for the dataset under a pipeline
// Run: the dataset generation, the three estimator fits, every
// statistics pass and the expected-curve fan-out all run under run's
// context and worker budget, emitting their stage events under a
// "figure/<dataset>" prefix. The expected-curve realizations run
// concurrently and every sampler, counter and estimator shards its own
// hot loops; the figure is identical for every worker count, and a
// cancelled run returns run.Err().
func RunFigureCtx(run *pipeline.Run, d Dataset, opts FigureOptions) (*FigureResult, error) {
	opts.fill()
	fig := run.Sub("figure/" + d.Name)
	rng := randx.New(opts.Seed ^ d.Seed)
	g, err := d.GenerateCtx(fig)
	if err != nil {
		return nil, err
	}

	// Fit the three estimators.
	kf, err := kronfit.FitCtx(fig, g, kronfit.Options{K: d.K, Iters: opts.KronFitIters, Rng: rng.Split()})
	if err != nil {
		return nil, fmt.Errorf("kronfit: %w", err)
	}
	km, err := kronmom.FitGraphCtx(fig, g, d.K, kronmom.Options{Rng: rng.Split()})
	if err != nil {
		return nil, fmt.Errorf("kronmom: %w", err)
	}
	pr, err := core.EstimateCtx(fig, g, core.Options{Eps: opts.Eps, Delta: opts.Delta, K: d.K, Rng: rng.Split()})
	if err != nil {
		return nil, fmt.Errorf("private: %w", err)
	}
	estimates := map[string]skg.Initiator{
		"KronFit": kf.Init,
		"KronMom": km.Init,
		"Private": pr.Init,
	}

	orig, err := computeStatsCtx(fig, g, opts, rng.Split())
	if err != nil {
		return nil, err
	}
	res := &FigureResult{
		Dataset:   d,
		Estimates: estimates,
		Original:  orig,
		Single:    map[string]GraphStats{},
	}
	for _, name := range EstimatorNames {
		m := skg.Model{Init: estimates[name], K: d.K}
		synth, err := m.SampleBallDropCtx(fig, rng.Split())
		if err != nil {
			return nil, err
		}
		res.Single[name], err = computeStatsCtx(fig, synth, opts, rng.Split())
		if err != nil {
			return nil, err
		}
	}
	if opts.ExpectedRuns > 0 {
		res.Expected = map[string]GraphStats{}
		// The worker budget moves to the realization level here: the
		// runs fan out across the pool while each run's sampler and
		// statistics stay single-goroutine, so the total stays within
		// the run budget instead of multiplying the two levels.
		for _, name := range EstimatorNames {
			m := skg.Model{Init: estimates[name], K: d.K}
			// Every realization gets its pair of streams derived serially
			// up front, then the runs execute concurrently; averageStats
			// consumes them in run order, so the expected curves are
			// identical for every worker count.
			type runRngs struct{ sample, stats *randx.Rand }
			rngs := make([]runRngs, opts.ExpectedRuns)
			for r := range rngs {
				rngs[r] = runRngs{sample: rng.Split(), stats: rng.Split()}
			}
			all := make([]GraphStats, opts.ExpectedRuns)
			errs := make([]error, opts.ExpectedRuns)
			// The realizations report no per-run stage events (they would
			// interleave meaninglessly); the fan-out itself is one stage.
			doneExp := fig.Stage("expected/" + name)
			runSolo := pipeline.New(run.Context(), 1, nil)
			if err := parallel.Run(run.Context(), run.Workers(), opts.ExpectedRuns, func(r int) {
				synth, err := m.SampleBallDropCtx(runSolo, rngs[r].sample)
				if err != nil {
					errs[r] = err
					return
				}
				all[r], errs[r] = computeStatsCtx(runSolo, synth, opts, rngs[r].stats)
			}); err != nil {
				return nil, err
			}
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			res.Expected[name] = averageStats(all)
			doneExp()
		}
	}
	return res, nil
}

// computeStatsCtx computes the five panel statistics of one graph under
// a pipeline Run.
func computeStatsCtx(run *pipeline.Run, g *graph.Graph, opts FigureOptions, rng *randx.Rand) (GraphStats, error) {
	var hop Series
	if opts.ExactHopPlot {
		exact, err := stats.HopPlotCtx(run, g)
		if err != nil {
			return GraphStats{}, err
		}
		hop = Series{Name: "hop plot"}
		for h, v := range exact {
			hop.X = append(hop.X, float64(h))
			hop.Y = append(hop.Y, float64(v))
		}
	} else {
		approx, err := anf.HopPlotCtx(run, g, anf.Options{Rng: rng.Split()})
		if err != nil {
			return GraphStats{}, err
		}
		hop = Series{Name: "hop plot"}
		for h, v := range approx {
			hop.X = append(hop.X, float64(h))
			hop.Y = append(hop.Y, v)
		}
	}

	dd := stats.DegreeDistribution(g)
	deg := Series{Name: "degree distribution"}
	for _, p := range dd {
		deg.X = append(deg.X, float64(p.Degree))
		deg.Y = append(deg.Y, p.Value)
	}

	sv, err := linalg.ScreeValuesCtx(run, g, opts.ScreeRank, rng.Split())
	if err != nil {
		return GraphStats{}, err
	}
	scree := Series{Name: "scree"}
	for i, v := range sv {
		scree.X = append(scree.X, float64(i+1))
		scree.Y = append(scree.Y, v)
	}

	nv, err := linalg.NetworkValuesCtx(run, g, rng.Split())
	if err != nil {
		return GraphStats{}, err
	}
	// Downsample network values to ~64 log-spaced ranks to keep the
	// series printable; the paper's panel is a log–log curve.
	net := Series{Name: "network value"}
	for _, idx := range logRanks(len(nv), 64) {
		net.X = append(net.X, float64(idx+1))
		net.Y = append(net.Y, nv[idx])
	}

	cc, err := stats.ClusteringByDegreeCtx(run, g)
	if err != nil {
		return GraphStats{}, err
	}
	clust := Series{Name: "clustering"}
	for _, p := range cc {
		clust.X = append(clust.X, float64(p.Degree))
		clust.Y = append(clust.Y, p.Value)
	}

	return GraphStats{HopPlot: hop, DegreeDist: deg, Scree: scree, NetValues: net, Clustering: clust}, nil
}

// logRanks returns up to count distinct indices in [0, n) spaced
// logarithmically.
func logRanks(n, count int) []int {
	if n == 0 {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for i := 0; i < count; i++ {
		f := math.Pow(float64(n), float64(i)/float64(count-1))
		idx := int(f) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// averageStats averages series across runs. Series are aligned on X:
// for integer-X series (hop, degree, scree, rank) values are averaged
// per X, treating missing entries as absent (mean over runs that have
// the X).
func averageStats(runs []GraphStats) GraphStats {
	pick := func(f func(GraphStats) Series, name string) Series {
		sum := map[float64]float64{}
		cnt := map[float64]int{}
		for _, r := range runs {
			s := f(r)
			for i := range s.X {
				sum[s.X[i]] += s.Y[i]
				cnt[s.X[i]]++
			}
		}
		xs := make([]float64, 0, len(sum))
		for x := range sum {
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		out := Series{Name: name}
		for _, x := range xs {
			out.X = append(out.X, x)
			out.Y = append(out.Y, sum[x]/float64(cnt[x]))
		}
		return out
	}
	return GraphStats{
		HopPlot:    pick(func(g GraphStats) Series { return g.HopPlot }, "hop plot (expected)"),
		DegreeDist: pick(func(g GraphStats) Series { return g.DegreeDist }, "degree distribution (expected)"),
		Scree:      pick(func(g GraphStats) Series { return g.Scree }, "scree (expected)"),
		NetValues:  pick(func(g GraphStats) Series { return g.NetValues }, "network value (expected)"),
		Clustering: pick(func(g GraphStats) Series { return g.Clustering }, "clustering (expected)"),
	}
}

// PanelNames orders the five panels as in the paper.
var PanelNames = []string{"hop plot", "degree distribution", "scree", "network value", "clustering"}

// Panel extracts a panel by name.
func (gs GraphStats) Panel(name string) Series {
	switch name {
	case "hop plot":
		return gs.HopPlot
	case "degree distribution":
		return gs.DegreeDist
	case "scree":
		return gs.Scree
	case "network value":
		return gs.NetValues
	case "clustering":
		return gs.Clustering
	}
	return Series{}
}
