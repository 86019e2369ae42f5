package bench

import (
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"dpkron/internal/anf"
	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// anfTrials is the figure path's default sketch count.
const anfTrials = 32

// statsInput is the stats-hopplot graph with the hop-plot facts that
// follow from it without a BFS: n pairs at distance 0, n + 2m within
// distance 1, and Σ size² reachable pairs over the connected components.
type statsInput struct {
	g         *graph.Graph
	reachable int64
	anfSeed   uint64
}

func runStatsHopPlot(r *runner) error {
	m, err := skg.NewModel(initiator, r.cfg.Sizes.StatsK)
	if err != nil {
		return err
	}
	rng := randx.New(r.cfg.Seed)
	graphSeed, anfSeed := rng.Uint64(), rng.Uint64()
	states, downs, err := setups(r, 1, func(string) (*statsInput, func(), error) {
		g, err := m.SampleBallDropCtx(pipeline.New(nil, 0, nil), randx.New(graphSeed))
		if err != nil {
			return nil, nil, err
		}
		in := &statsInput{g: g, anfSeed: anfSeed}
		_, sizes := stats.ConnectedComponents(g)
		for _, s := range sizes {
			in.reachable += int64(s) * int64(s)
		}
		return in, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer downs[0]()
	in := states[0]
	n, e := int64(in.g.NumNodes()), int64(in.g.NumEdges())

	// Each operation is what `dpkron stats` computes, on all cores.
	run := pipeline.New(nil, 0, nil)
	lt := layerTimes{}
	var reps, heapPeaks []float64
	var first [sha256.Size]byte
	heap := watchHeap()
	alloc0 := allocatedMiB()
	elapsed := closedLoop(1, r.cfg.Sizes.StatsReps, r.cfg.Seconds, func(int) {
		start := time.Now()
		var f stats.Features
		var hop []int64
		var err error
		dFeat := timed(func() { f, err = stats.FeaturesOfCtx(run, in.g) })
		var dHop time.Duration
		if err == nil {
			dHop = timed(func() { hop, err = stats.HopPlotCtx(run, in.g) })
		}
		r.op(err)
		if err != nil {
			return
		}
		reps = append(reps, ms(dFeat+dHop))
		heapPeaks = append(heapPeaks, heap.peakSinceMiB(start))
		lt.add("stats.features_ms", dFeat)
		lt.add("stats.hopplot_ms", dHop)
		sum := sha256.Sum256([]byte(fmt.Sprint(hop)))
		switch {
		case int64(f.E) != e:
			r.mismatch("features count %v edges, the graph has %d", f.E, e)
		case len(hop) < 2 || hop[0] != n || hop[1] != n+2*e || hop[len(hop)-1] != in.reachable:
			r.mismatch("hop plot %v: want %d pairs at 0 hops, %d within 1, %d reachable", hop, n, n+2*e, in.reachable)
		case len(reps) == 1:
			first = sum
			r.detail("hop plot: %d nodes, %d edges, %d hops, sha256 %x", n, e, len(hop)-1, sum[:8])
			if r.cfg.Trace {
				compareANF(r, run, in, hop, lt)
			}
		case sum != first:
			r.mismatch("hop plot of rep %d differs from rep 1", len(reps))
		}
	})
	heap.close()
	r.set("op_peak_live_heap_mib", Median(heapPeaks))
	r.set("runtime.alloc_mib_per_op", (allocatedMiB()-alloc0)/math.Max(1, float64(len(reps))))
	r.set("p50_ms", Median(reps))
	r.set("ops_per_s", float64(len(reps))/elapsed.Seconds())
	r.detail("features + hop plot: %s ms", Summarize(reps, 90))
	if r.cfg.Trace {
		lt.report(r)
	}
	return nil
}

// compareANF times the approximate hop plot the figure path can use
// instead and records its largest relative error against the exact one.
func compareANF(r *runner, run *pipeline.Run, in *statsInput, exact []int64, lt layerTimes) {
	var approx []float64
	var err error
	lt.add("anf.hopplot_ms", timed(func() {
		approx, err = anf.HopPlotCtx(run, in.g, anf.Options{Trials: anfTrials, Rng: randx.New(in.anfSeed)})
	}))
	r.op(err)
	if err != nil {
		return
	}
	worst := 0.0
	for h := 0; h < len(exact) || h < len(approx); h++ {
		x := float64(exact[min(h, len(exact)-1)])
		a := approx[min(h, len(approx)-1)]
		worst = math.Max(worst, math.Abs(a-x)/x)
	}
	r.set("anf.max_rel_error", worst)
}
