// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 4.2), plus the extension studies and
// micro-benchmarks of the core kernels.
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark prints its regenerated rows/series once per
// process, so the bench run doubles as the reproduction harness:
//
//	BenchmarkTable1            — Table 1   (parameter comparison)
//	BenchmarkFigure1_CAGrQc    — Figure 1  (CA-GrQc, incl. expected-over-N curves)
//	BenchmarkFigure2_AS20      — Figure 2  (AS20, single realizations)
//	BenchmarkFigure3_CAHepTh   — Figure 3  (CA-HepTh, single realizations)
//	BenchmarkFigure4_Synthetic — Figure 4  (synthetic source)
//	BenchmarkEpsilonSweep      — privacy–utility across ε (§4.2 extension)
//	BenchmarkSmoothSensGrowth  — SS_Δ vs graph size (§5 future work)
//	BenchmarkSmoothSensCompare — SS_Δ: SKG vs G(n,p) (§5 future work)
//	BenchmarkDistNormAblation  — Gleich–Owen objective robustness (§3.4)
//	BenchmarkModelSelection    — N1=2 vs N1=3 sources (§3.3)
package dpkron_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpkron"
	"dpkron/internal/accountant"
	"dpkron/internal/anf"
	"dpkron/internal/core"
	"dpkron/internal/dataset"
	"dpkron/internal/degseq"
	"dpkron/internal/dp"
	"dpkron/internal/experiments"
	"dpkron/internal/extsort"
	"dpkron/internal/graph"
	"dpkron/internal/journal"
	"dpkron/internal/kronfit"
	"dpkron/internal/kronmom"
	"dpkron/internal/obs"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/release"
	"dpkron/internal/server"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

var printOnce sync.Map

// printResult emits experiment output exactly once per process so
// repeated benchmark iterations do not spam the log.
func printResult(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, text)
	}
}

// --- Table 1 ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiments.Table1Options{Eps: 0.2, Delta: 0.01, Seed: 7}
		rows, err := experiments.RunTable1DatasetsCtx(nil, experiments.Registry(), opts)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Table 1", experiments.RenderTable1(rows, opts))
	}
}

// --- Figures 1–4 ---

func benchFigure(b *testing.B, dataset string, expectedRuns int) {
	b.Helper()
	d, err := experiments.Lookup(dataset)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigureCtx(nil, d, experiments.FigureOptions{
			Eps: 0.2, Delta: 0.01, Seed: 11, ExpectedRuns: expectedRuns,
		})
		if err != nil {
			b.Fatal(err)
		}
		printResult("Figure "+dataset, experiments.RenderFigure(res, 9))
	}
}

// BenchmarkFigure1_CAGrQc regenerates Figure 1, including the paper's
// "Expected" curves. The paper averages 100 realizations; 20 keeps the
// benchmark under a minute while the estimate of the mean is already
// tight (use cmd/dpkron figure -expected 100 for the full run).
func BenchmarkFigure1_CAGrQc(b *testing.B)    { benchFigure(b, "CA-GrQc-like", 20) }
func BenchmarkFigure2_AS20(b *testing.B)      { benchFigure(b, "AS20-like", 0) }
func BenchmarkFigure3_CAHepTh(b *testing.B)   { benchFigure(b, "CA-HepTh-like", 0) }
func BenchmarkFigure4_Synthetic(b *testing.B) { benchFigure(b, "Synthetic", 0) }

// --- Extension studies ---

func BenchmarkEpsilonSweep(b *testing.B) {
	d, err := experiments.Lookup("Synthetic")
	if err != nil {
		b.Fatal(err)
	}
	g := must(d.GenerateCtx(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EpsilonSweepCtx(nil, g, d.K, []float64{0.05, 0.1, 0.2, 0.5, 1, 2}, 0.01, 5, 3)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Epsilon sweep (Synthetic)", experiments.RenderSweep(rows))
	}
}

func BenchmarkSmoothSensGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SmoothSensGrowthCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, []int{8, 9, 10, 11, 12, 13, 14}, 0.2, 0.01, 3)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Smooth sensitivity growth", experiments.RenderSSGrowth(rows))
	}
}

func BenchmarkDistNormAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DistNormAblationCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 12, 21)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Dist/Norm ablation (k=12 synthetic)", experiments.RenderAblation(rows))
	}
}

// --- Serial vs parallel: the sharded engine at scale ---
//
// These benchmarks compare the worker-pool hot paths against their
// single-goroutine baselines on k >= 16 inputs (65k–262k nodes). The
// workers=1 case runs the identical sharded code on one goroutine, so
// the ratio isolates parallel speedup rather than algorithmic changes;
// outputs are bit-identical across worker counts by construction.
//
//	go test -bench 'SampleExact/|SampleBallDrop/|Features/' -benchtime 1x

var featureGraphCache sync.Map

// featureGraph returns a cached dense-ish ball-drop SKG sample at the
// given k, shared across sub-benchmarks so setup cost is paid once.
func featureGraph(b *testing.B, k, edges int) *dpkron.Graph {
	b.Helper()
	key := fmt.Sprintf("%d/%d", k, edges)
	if g, ok := featureGraphCache.Load(key); ok {
		return g.(*dpkron.Graph)
	}
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: k}
	g := must(m.SampleBallDropNCtx(nil, randx.New(99), edges))
	featureGraphCache.Store(key, g)
	return g
}

func BenchmarkSampleExact(b *testing.B) {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 16}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=16/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := must(m.SampleExactCtx(pipeline.New(nil, workers, nil), randx.New(uint64(i)+1)))
				if g.NumNodes() != 1<<16 {
					b.Fatal("bad sample")
				}
			}
		})
	}
}

func BenchmarkSampleBallDrop(b *testing.B) {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 18}
	target := 1 << 21 // 2M edges on 262k nodes
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=18/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := must(m.SampleBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(uint64(i)+1), target))
				if g.NumEdges() != target {
					b.Fatalf("placed %d edges, want %d", g.NumEdges(), target)
				}
			}
		})
	}
}

// statsGraphEdges is about the edge count of a k=14 ball drop at its
// expected count, the graph `dpkron stats` is timed on.
const statsGraphEdges = 21000

// BenchmarkFeatures measures the full matching-feature computation
// (edges, wedges, tripins, triangles) on a k=17 graph with 2M edges,
// and on a k=14 ball drop on 2 workers, where the allocation per call
// is the per-worker triangle stamp set.
func BenchmarkFeatures(b *testing.B) {
	b.Run("k=14/workers=2", func(b *testing.B) {
		g := featureGraph(b, 14, statsGraphEdges)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			must(stats.FeaturesOfCtx(pipeline.New(nil, 2, nil), g))
		}
	})
	g := featureGraph(b, 17, 1<<21)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=17/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := must(stats.FeaturesOfCtx(pipeline.New(nil, workers, nil), g))
				if f.E == 0 {
					b.Fatal("bad features")
				}
			}
		})
	}
}

// BenchmarkHopPlotANFWorkers measures sketch propagation at k=16.
func BenchmarkHopPlotANFWorkers(b *testing.B) {
	g := featureGraph(b, 16, 1<<20)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=16/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(anf.HopPlotCtx(pipeline.New(nil, workers, nil), g, anf.Options{Trials: 16, Rng: randx.New(5)}))
			}
		})
	}
}

// --- Perf-trajectory benchmarks (history in BENCH_2.json) ---
//
// These three families track the optimized hot paths (table-driven
// KronFit kernels, radix-sort graph construction, map-free ball
// dropping); BENCH_2.json holds their recorded trajectory. The seeded,
// end-to-end benchmark of the module lives in bench/ (see
// BENCHMARK.json).

// buildBenchBuilder returns a Builder pre-loaded with m random edge
// mentions (duplicates included) on 2^17 nodes, so the benchmark loop
// isolates Build (sort + dedupe + CSR fill).
func buildBenchBuilder(m int) *graph.Builder {
	n := 1 << 17
	rng := randx.New(uint64(m))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			v = (v + 1) % n
		}
		b.AddEdge(u, v)
	}
	return b
}

func BenchmarkGraphBuild(b *testing.B) {
	for _, m := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			builder := buildBenchBuilder(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := builder.Build()
				if g.NumNodes() != 1<<17 {
					b.Fatal("bad build")
				}
			}
		})
	}
}

// BenchmarkKronFitMetropolis times one full gradient iteration of
// kronfit.Fit — dominated by the Metropolis warmup/sample swaps plus the
// per-edge gradient sums — on a single worker so the ratio tracks the
// arithmetic kernels rather than parallel speedup.
func BenchmarkKronFitMetropolis(b *testing.B) {
	for _, cfg := range []struct{ k, edges int }{{12, 1 << 15}, {14, 1 << 17}} {
		g := featureGraph(b, cfg.k, cfg.edges)
		b.Run(fmt.Sprintf("K=%d", cfg.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := kronfit.FitCtx(pipeline.New(nil, 1, nil), g, kronfit.Options{
					K: cfg.k, Iters: 1, Rng: randx.New(uint64(i) + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBallDropN times SampleBallDropNCtx at fixed targets —
// drop generation plus duplicate elimination plus graph construction.
func BenchmarkBallDropN(b *testing.B) {
	for _, cfg := range []struct{ k, target int }{
		{16, 1 << 19}, {18, 1 << 20}, {20, 1 << 21},
	} {
		m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: cfg.k}
		b.Run(fmt.Sprintf("K=%d", cfg.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := must(m.SampleBallDropNCtx(nil, randx.New(uint64(i)+1), cfg.target))
				if g.NumEdges() != cfg.target {
					b.Fatalf("placed %d edges, want %d", g.NumEdges(), cfg.target)
				}
			}
		})
	}
}

// --- Pipeline-overhead benchmarks (history in BENCH_3.json) ---
//
// Each pair runs the same workload under a nil Run ("nil": a context
// that can never be cancelled, so no check does any work) and under a
// live, cancellable-but-never-cancelled context ("live") — the real
// cancellation path. Both run on all cores; the context checks sit at
// shard and pass boundaries, so live should stay within 2% of nil.

func BenchmarkPipelineOverhead(b *testing.B) {
	g := featureGraph(b, 16, 1<<20)
	kg := featureGraph(b, 12, 1<<15)
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 16}
	for _, w := range []struct {
		name string
		op   func(run *pipeline.Run, i int) error
	}{
		{"features", func(run *pipeline.Run, _ int) error {
			_, err := stats.FeaturesOfCtx(run, g)
			return err
		}},
		{"balldrop", func(run *pipeline.Run, i int) error {
			_, err := m.SampleBallDropNCtx(run, randx.New(uint64(i)+1), 1<<19)
			return err
		}},
		{"kronfit", func(run *pipeline.Run, i int) error {
			_, err := kronfit.FitCtx(run, kg, kronfit.Options{K: 12, Iters: 1, Rng: randx.New(uint64(i) + 1)})
			return err
		}},
	} {
		for _, leg := range []struct {
			name string
			run  func(b *testing.B) *pipeline.Run
		}{
			{"nil", func(*testing.B) *pipeline.Run { return nil }},
			{"live", func(b *testing.B) *pipeline.Run { return liveRun(b, 0) }},
		} {
			b.Run(w.name+"-"+leg.name, func(b *testing.B) {
				run := leg.run(b)
				for i := 0; i < b.N; i++ {
					if err := w.op(run, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Mechanism-dispatch benchmarks (history in BENCH_4.json) ---
//
// Each pair runs one real release unit of the codebase directly
// ("direct": the historical dp.Laplace*/smoothsens path) and through
// the accounted mechanism handle ("accounted": charge recorded on a
// live accountant, then the identical draws). The pair granularity is
// the release the accountant actually meters — a whole degree-sequence
// vector, a whole triangle release — because that is where PR 4's
// ≤ 2% dispatch-overhead bound applies; BENCH_4.json's
// mechanism_dispatch section records the ratios.

func BenchmarkMechanismDispatch(b *testing.B) {
	vals := make([]float64, 1<<12)
	for i := range vals {
		vals[i] = float64(i)
	}
	b.Run("laplacevec-n4096-direct", func(b *testing.B) {
		rng := randx.New(5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := dp.LaplaceVec(vals, 2, 0.5, rng); len(out) != len(vals) {
				b.Fatal("bad release")
			}
		}
	})
	b.Run("laplacevec-n4096-accounted", func(b *testing.B) {
		rng := randx.New(5)
		acc := accountant.New(nil)
		mech := accountant.LaplaceVec{Sens: 2, Eps: 0.5}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := acc.Charge("bench/laplacevec", mech); err != nil {
				b.Fatal(err)
			}
			if out := mech.Apply(vals, rng); len(out) != len(vals) {
				b.Fatal("bad release")
			}
		}
	})

	dg := featureGraph(b, 12, 1<<15)
	b.Run("degseq-k12-direct", func(b *testing.B) {
		rng := randx.New(7)
		for i := 0; i < b.N; i++ {
			if out := degseq.Private(dg, 0.25, rng); len(out) != dg.NumNodes() {
				b.Fatal("bad release")
			}
		}
	})
	b.Run("degseq-k12-accounted", func(b *testing.B) {
		rng := randx.New(7)
		acc := accountant.New(nil)
		for i := 0; i < b.N; i++ {
			out, err := degseq.PrivateAcc(acc, dg, 0.25, rng)
			if err != nil || len(out) != dg.NumNodes() {
				b.Fatal("bad release", err)
			}
		}
	})

	// Both triangle legs run under the same live Run so the pair
	// isolates accounting overhead from the (separately benchmarked)
	// pipeline overhead. A k=8 release (~300 µs: sensitivity scan +
	// exact count + one draw) keeps each leg short enough that machine
	// drift between the paired legs stays below the ratio being
	// measured.
	tg := featureGraph(b, 8, 1<<11)
	b.Run("triangles-k8-direct", func(b *testing.B) {
		rng := randx.New(9)
		run := liveRun(b, 1)
		for i := 0; i < b.N; i++ {
			tri, err := smoothsens.PrivateTrianglesCtx(run, nil, tg, 0.25, 0.01, rng)
			if err != nil || tri.Exact == 0 {
				b.Fatal("bad release", err)
			}
		}
	})
	b.Run("triangles-k8-accounted", func(b *testing.B) {
		rng := randx.New(9)
		acc := accountant.New(nil)
		run := liveRun(b, 1)
		for i := 0; i < b.N; i++ {
			tri, err := smoothsens.PrivateTrianglesCtx(run, acc, tg, 0.25, 0.01, rng)
			if err != nil || tri.Exact == 0 {
				b.Fatal("bad release", err)
			}
		}
	})
}

// --- Micro-benchmarks of the core kernels ---

func benchGraph(b *testing.B, k int) *dpkron.Graph {
	b.Helper()
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: k}
	return must(m.SampleExactCtx(nil, randx.New(1)))
}

func BenchmarkSampleExactK11(b *testing.B) {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 11}
	rng := randx.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := must(m.SampleExactCtx(nil, rng))
		if g.NumNodes() != 2048 {
			b.Fatal("bad sample")
		}
	}
}

func BenchmarkSampleBallDropK14(b *testing.B) {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 14}
	rng := randx.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := must(m.SampleBallDropCtx(nil, rng))
		if g.NumNodes() != 16384 {
			b.Fatal("bad sample")
		}
	}
}

// denseBenchGraph is the fit-dense benchmark workload's graph shape: a
// K=15 ball-drop sample with 2^19 edges, whose few high-degree hubs make
// the triangle release the dominant cost of a private fit. It is built
// once per process.
var denseBenchGraph = sync.OnceValue(func() *graph.Graph {
	m := skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 15}
	return must(m.SampleBallDropNCtx(nil, randx.New(1), 1<<19))
})

// triangleBenchCases are the graphs the triangle-release kernels are
// timed on: the sparse K=12 sample on all cores, and the dense K=15
// graph on one worker, the budget a served job gets on a 2-core host.
func triangleBenchCases(b *testing.B) []struct {
	name string
	g    *graph.Graph
	run  *pipeline.Run
} {
	return []struct {
		name string
		g    *graph.Graph
		run  *pipeline.Run
	}{
		{"sparse-K12", benchGraph(b, 12), nil},
		{"dense-K15-1w", denseBenchGraph(), pipeline.New(nil, 1, nil)},
	}
}

func BenchmarkTriangleCount(b *testing.B) {
	for _, c := range triangleBenchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				must(stats.TrianglesCtx(c.run, c.g))
			}
		})
	}
}

func BenchmarkPrivateDegreeSequence(b *testing.B) {
	g := benchGraph(b, 12)
	rng := randx.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		degseq.Private(g, 0.1, rng)
	}
}

func BenchmarkSmoothSensitivity(b *testing.B) {
	for _, c := range triangleBenchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				must(smoothsens.SmoothCtx(c.run, c.g, 0.01))
			}
		})
	}
}

func BenchmarkMomentObjective(b *testing.B) {
	feats := stats.Features{E: 28980, H: 240000, T: 3.2e6, Delta: 48000}
	obj := kronmom.DefaultObjective()
	init := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obj.Eval(feats, 13, init)
	}
}

func BenchmarkMomentFit(b *testing.B) {
	g := benchGraph(b, 12)
	feats := must(stats.FeaturesOfCtx(nil, g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kronmom.FitCtx(nil, feats, 12, kronmom.Options{Rng: randx.New(uint64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKronFitIteration(b *testing.B) {
	g := benchGraph(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kronfit.FitCtx(nil, g, kronfit.Options{K: 10, Iters: 1, Rng: randx.New(uint64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrivateEstimateEndToEnd(b *testing.B) {
	g := benchGraph(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateCtx(nil, g, core.Options{Eps: 0.2, Delta: 0.01, Rng: randx.New(uint64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHopPlotExact measures the exact hop plot on the k=11 exact
// sample on all cores, and on a k=14 ball drop on 2 workers, where the
// allocation per call is the per-worker BFS scratch.
func BenchmarkHopPlotExact(b *testing.B) {
	b.Run("k=11", func(b *testing.B) {
		g := benchGraph(b, 11)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			must(stats.HopPlotCtx(nil, g))
		}
	})
	b.Run("k=14/workers=2", func(b *testing.B) {
		g := featureGraph(b, 14, statsGraphEdges)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			must(stats.HopPlotCtx(pipeline.New(nil, 2, nil), g))
		}
	})
}

func BenchmarkHopPlotANF(b *testing.B) {
	g := benchGraph(b, 13)
	rng := randx.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(dpkron.ApproxHopPlot(nil, g, 32, rng))
	}
}

func BenchmarkScreeValues(b *testing.B) {
	g := benchGraph(b, 12)
	rng := randx.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(dpkron.ScreeValues(nil, g, 48, rng))
	}
}

// BenchmarkSmoothSensCompare contrasts SS_Δ on SKG samples against
// density-matched Erdős–Rényi graphs (the §5 comparison to Nissim et
// al.'s G(n,p) analysis).
func BenchmarkSmoothSensCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SmoothSensCompareCtx(nil, skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, []int{8, 9, 10, 11, 12, 13}, 0.2, 0.01, 11)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Smooth sensitivity: SKG vs G(n,p)", experiments.RenderSSCompare(rows))
	}
}

// BenchmarkModelSelection regenerates the §3.3 model-selection study:
// a 2×2 moment fit applied to graphs from 2×2 and 3×3 initiators.
func BenchmarkModelSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ModelSelectionCtx(nil, 31)
		if err != nil {
			b.Fatal(err)
		}
		printResult("Model selection (N1=2 vs N1=3 source)", experiments.RenderModelSelection(rows))
	}
}

// --- Dataset-load benchmarks (history in BENCH_5.json) ---
//
// Each pair loads the same k=16..18 graph from SNAP edge-list text
// ("text": the streaming parser every pre-store fit paid on every run)
// and from the dataset store's binary CSR codec ("binary": the
// verifying heap decode of the v2 layout, which an upload and a
// platform without mmap pay). Both decode from memory, so the ratio
// isolates parse cost from disk. BENCH_5.json's dataset_load section
// records the binary_over_text ratios of the v1 layout the store wrote
// then; the store's acceptance bar is binary measurably below text.

func BenchmarkDatasetLoad(b *testing.B) {
	for _, cfg := range []struct{ k, edges int }{
		{16, 1 << 19}, {17, 1 << 20}, {18, 1 << 21},
	} {
		g := featureGraph(b, cfg.k, cfg.edges)
		var text bytes.Buffer
		if err := g.WriteEdgeList(&text); err != nil {
			b.Fatal(err)
		}
		bin := encodeV2(b, g)

		b.Run(fmt.Sprintf("K=%d-text", cfg.k), func(b *testing.B) {
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), 0)
				if err != nil || got.NumEdges() != g.NumEdges() {
					b.Fatal("bad parse", err)
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d-binary", cfg.k), func(b *testing.B) {
			b.SetBytes(int64(len(bin)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := dataset.Unmarshal(bin)
				if err != nil || got.NumEdges() != g.NumEdges() {
					b.Fatal("bad decode", err)
				}
			}
		})
	}
}

// BenchmarkReleaseCache measures what the release cache buys: the
// K=16-cold leg is a full private fit (Algorithm 1 end to end, plus the
// memoizing Put a cache-enabled fit performs), the K=16-cached leg is
// what a repeat of the identical question costs — a cache Get plus the
// payload decode, zero mechanism work. BENCH_6.json's release_cache
// section records the cached_over_cold speedup; the acceptance bar is cached throughput >= 20x cold at k=16.

func BenchmarkReleaseCache(b *testing.B) {
	g := featureGraph(b, 16, 1<<19)
	cache, err := release.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ds := accountant.DatasetID(g)
	key := release.KeyFor(ds, 0.5, 0.01, 16, 9, core.PlannedReceipt(0.5, 0.01))

	b.Run("K=16-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.EstimateCtx(nil, g, core.Options{Eps: 0.5, Delta: 0.01, K: 16, Rng: randx.New(9)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cache.Put(key, server.PrivateFitResult(res, ds)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("K=16-cached", func(b *testing.B) {
		if _, ok := cache.Get(key); !ok {
			b.Fatal("cold leg left no entry")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, ok := cache.Get(key)
			if !ok {
				b.Fatal("cache miss")
			}
			var fr server.FitResult
			if err := json.Unmarshal(e.Payload, &fr); err != nil {
				b.Fatal(err)
			}
			if fr.K != 16 {
				b.Fatalf("bad payload k=%d", fr.K)
			}
		}
	})
}

// BenchmarkLedgerSpend times what every served private fit asks of the
// privacy ledger — a token-bearing debit and the Remaining read that
// labels it — against a ledger already holding 500 or 5,000 receipts.
// An append-only ledger makes both independent of the receipts before
// them, so the two sub-benchmarks should read the same. The priors are
// written as one v1 JSON ledger, which Open converts in a single
// rewrite, instead of fsyncing thousands of spends during set-up.
func BenchmarkLedgerSpend(b *testing.B) {
	const dataset = "ds-bench"
	budget := dp.Budget{Eps: 1e9, Delta: 0.999}
	// δ small enough that priors and any b.N of debits fit the budget.
	receipt := core.PlannedReceipt(0.4, 1e-7)
	for _, priors := range []int{500, 5000} {
		b.Run(fmt.Sprintf("priors=%d", priors), func(b *testing.B) {
			old := accountant.Account{Budget: budget}
			for i := 0; i < priors; i++ {
				r := receipt
				r.Token = fmt.Sprintf("prior-%d", i)
				old.Spent = dp.Compose(old.Spent, r.Total)
				old.Receipts = append(old.Receipts, r)
			}
			v1, err := json.Marshal(map[string]any{"version": 1, "datasets": map[string]any{dataset: old}})
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "ledger.json")
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				b.Fatal(err)
			}
			led, err := accountant.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := led.SpendToken(dataset, receipt, fmt.Sprintf("job-%d", i)); err != nil {
					b.Fatal(err)
				}
				if led.Remaining(dataset).Eps <= 0 {
					b.Fatal("budget exhausted")
				}
			}
		})
	}
}

// BenchmarkJournalOverhead measures what crash durability costs on the
// serving path. Each op is one complete job lifecycle over the HTTP
// API — admission, a K=15 private fit by stored dataset id, completion
// — against a server with no journal (plain) and one journaling every
// transition, with fsynced admission and terminal records (journal).
// BENCH_7.json's journal_overhead section records journal_over_plain;
// the acceptance bound is <= 1.02 — a job's
// durable records cost two fsyncs (a fixed handful of ms), which must
// disappear into a production-shaped fit of ~1 s.
func BenchmarkJournalOverhead(b *testing.B) {
	g := featureGraph(b, 15, 1<<19)
	store, err := dataset.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	meta, _, err := store.Put(g, "bench", "generated")
	if err != nil {
		b.Fatal(err)
	}

	lifecycle := func(b *testing.B, jnl *journal.Journal) {
		srv := server.New(server.Options{
			Workers: 1, MaxJobs: 1, MaxQueue: 4, MaxHistory: 64,
			Datasets: store, Journal: jnl,
		})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"method":"private","eps":0.4,"delta":0.01,"k":15,"seed":%d,"dataset_id":%q}`,
				i+1, meta.ID)
			resp, err := http.Post(ts.URL+"/v1/fit", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var sub struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
				b.Fatalf("fit submit: %d %+v", resp.StatusCode, sub)
			}
			for {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
				if err != nil {
					b.Fatal(err)
				}
				var job struct {
					Status string `json:"status"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if job.Status == "done" {
					break
				}
				if job.Status == "failed" || job.Status == "cancelled" {
					b.Fatalf("job ended %s", job.Status)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	b.Run("K=15-plain", func(b *testing.B) { lifecycle(b, nil) })
	b.Run("K=15-journal", func(b *testing.B) {
		jnl, err := journal.Open(filepath.Join(b.TempDir(), "jobs.journal"))
		if err != nil {
			b.Fatal(err)
		}
		defer jnl.Close()
		lifecycle(b, jnl)
	})
}

// --- Out-of-core benchmarks (history in BENCH_8.json) ---
//
// MmapLoad pairs the two ways a stored v2 graph is materialized:
// "v2decode" reads the file and decodes the full CSR onto the heap,
// verifying its checksum (the route without mmap), and "v2open" maps
// the file and serves the CSR straight out of the page cache — O(1) in
// the graph size. BENCH_8.json's mmap_load section records the
// v1_over_v2 speedups against the legacy v1 decode, which the store no
// longer writes; the acceptance bar there was >= 10 at k=18.

func BenchmarkMmapLoad(b *testing.B) {
	for _, cfg := range []struct{ k, edges int }{
		{16, 1 << 19}, {18, 1 << 21}, {20, 1 << 22},
	} {
		g := featureGraph(b, cfg.k, cfg.edges)
		dir := b.TempDir()
		v2Path := filepath.Join(dir, "g.v2.dpkg")
		v2 := encodeV2(b, g)
		if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("K=%d-v2decode", cfg.k), func(b *testing.B) {
			b.SetBytes(int64(len(v2)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := os.ReadFile(v2Path)
				if err != nil {
					b.Fatal(err)
				}
				got, err := dataset.Unmarshal(data)
				if err != nil || got.NumEdges() != g.NumEdges() {
					b.Fatal("bad decode", err)
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d-v2open", cfg.k), func(b *testing.B) {
			b.SetBytes(int64(len(v2)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, _, err := dataset.OpenMapped(v2Path)
				if err != nil || got.NumEdges() != g.NumEdges() {
					b.Fatal("bad open", err)
				}
			}
			// Mappings are reclaimed by finalizer; collect them before the
			// next leg so they never pile up across a long benchtime.
			b.StopTimer()
			runtime.GC()
		})
	}
}

// BenchmarkStreamingGenerate pairs the two generate-to-store routes on
// identical sampling work: "inmem" materializes the full ball-drop
// sample as a CSR graph and then encodes it (the historical route),
// "streamed" spills sampled keys through the external sorter and
// writes the v2 file in one bounded-memory pass. Besides ns/op, each
// leg reports its peak heap growth ("heap-peak-bytes", measured by a
// HeapInuse sampler) — the number the streaming path exists to bound.
// BENCH_8.json's streaming_generate section records the
// streamed_over_inmem heap ratios; the acceptance bar is <= 0.25 at
// k=20, with k=22/24 recorded as the out-of-core points.
func BenchmarkStreamingGenerate(b *testing.B) {
	for _, cfg := range []struct{ k, edges int }{
		{20, 1 << 23}, {22, 1 << 23}, {24, 1 << 24},
	} {
		m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, cfg.k)
		if err != nil {
			b.Fatal(err)
		}
		leg := func(b *testing.B, streamed bool) {
			st, err := dataset.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			var base runtime.MemStats
			runtime.ReadMemStats(&base)
			var peak atomic.Uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ms runtime.MemStats
				for {
					select {
					case <-stop:
						return
					case <-time.After(10 * time.Millisecond):
						runtime.ReadMemStats(&ms)
						if ms.HeapInuse > peak.Load() {
							peak.Store(ms.HeapInuse)
						}
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh seed per iteration: the store dedupes identical
				// content before writing, which would turn every iteration
				// after the first into a no-op.
				rng := randx.New(uint64(8000 + i))
				var meta dataset.Meta
				if streamed {
					sorter, err := extsort.NewTemp(nil, 0)
					if err != nil {
						b.Fatal(err)
					}
					es, err := m.StreamBallDropNCtx(liveRun(b, 0), rng, cfg.edges, sorter)
					if err != nil {
						b.Fatal(err)
					}
					meta, _, err = st.PutStream(es, "bench", "generated")
					if err != nil {
						b.Fatal(err)
					}
					es.Close()
					sorter.RemoveAll()
				} else {
					g := must(m.SampleBallDropNCtx(nil, rng, cfg.edges))
					meta, _, err = st.Put(g, "bench", "generated")
					if err != nil {
						b.Fatal(err)
					}
				}
				if meta.Edges != cfg.edges {
					b.Fatalf("stored %d edges, want %d", meta.Edges, cfg.edges)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			grew := int64(peak.Load()) - int64(base.HeapInuse)
			if grew < 0 {
				grew = 0
			}
			b.ReportMetric(float64(grew), "heap-peak-bytes")
			runtime.GC()
		}
		b.Run(fmt.Sprintf("K=%d-inmem", cfg.k), func(b *testing.B) { leg(b, false) })
		b.Run(fmt.Sprintf("K=%d-streamed", cfg.k), func(b *testing.B) { leg(b, true) })
	}
}

// BenchmarkObsOverhead measures what full observability costs on the
// serving path. Each op is one complete job lifecycle over the HTTP
// API — admission, a K=15 private fit by stored dataset id, completion
// — against an uninstrumented server (plain) and one carrying the
// whole PR 9 telemetry surface: a metrics registry with every
// subsystem instrumented and a JSON logger at info (instrumented). BENCH_9.json's obs_overhead section records
// instrumented_over_plain; the acceptance bound is
// <= 1.02 — atomic counters and one log record per request/job must
// disappear into a production-shaped fit.
func BenchmarkObsOverhead(b *testing.B) {
	g := featureGraph(b, 15, 1<<19)
	store, err := dataset.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	meta, _, err := store.Put(g, "bench", "generated")
	if err != nil {
		b.Fatal(err)
	}

	lifecycle := func(b *testing.B, instrumented bool) {
		opts := server.Options{
			Workers: 1, MaxJobs: 1, MaxQueue: 4, MaxHistory: 64,
			Datasets: store,
		}
		if instrumented {
			opts.Metrics = obs.NewRegistry()
			logger, err := obs.NewLogger(io.Discard, "json", "info")
			if err != nil {
				b.Fatal(err)
			}
			opts.Logger = logger
		}
		srv := server.New(opts)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"method":"private","eps":0.4,"delta":0.01,"k":15,"seed":%d,"dataset_id":%q}`,
				i+1, meta.ID)
			resp, err := http.Post(ts.URL+"/v1/fit", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var sub struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
				b.Fatalf("fit submit: %d %+v", resp.StatusCode, sub)
			}
			for {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
				if err != nil {
					b.Fatal(err)
				}
				var job struct {
					Status string `json:"status"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if job.Status == "done" {
					break
				}
				if job.Status == "failed" || job.Status == "cancelled" {
					b.Fatalf("job ended %s", job.Status)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	b.Run("K=15-plain", func(b *testing.B) { lifecycle(b, false) })
	b.Run("K=15-instrumented", func(b *testing.B) { lifecycle(b, true) })
}
