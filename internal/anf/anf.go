// Package anf implements the Approximate Neighbourhood Function of
// Palmer, Gibbons and Faloutsos (KDD'02): a Flajolet–Martin sketch per
// node is propagated along edges so that after h rounds the sketch of v
// estimates |{u : dist(u, v) <= h}|. Summing over v yields the hop plot
// of the paper's Figure panels (a) in O(R·(n+m)·diameter) time, which is
// what makes the expected-over-100-realizations experiments tractable.
package anf

import (
	"context"
	"math"

	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// phi is the Flajolet–Martin bias correction constant.
const phi = 0.77351

// Options configures the sketch estimator.
type Options struct {
	// Trials is the number R of parallel bitmasks per node; the standard
	// error decreases like 1/sqrt(R). Default 32.
	Trials int
	// MaxHops caps the number of propagation rounds. Default 64.
	MaxHops int
	// Rng supplies randomness; required.
	Rng *randx.Rand
}

func (o *Options) fill() {
	if o.Trials <= 0 {
		o.Trials = 32
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 64
	}
}

// HopPlotCtx estimates the cumulative hop plot of g under a pipeline
// Run: element h approximates the number of ordered pairs (u, v),
// including u = v, within distance h. The returned slice stops when the
// estimate stops growing (within one part in 1e6) or at MaxHops.
//
// Propagation and estimation fan out over run's worker budget, and the
// estimate is identical for every worker count: sketch initialization
// consumes the Rng serially, propagation writes disjoint node blocks,
// and the cardinality sum reduces fixed shards in order. The context is
// checked between the blocks of each propagation round, an "anf" stage
// event pair is emitted, and a cancelled run returns run.Err().
func HopPlotCtx(run *pipeline.Run, g *graph.Graph, opts Options) ([]float64, error) {
	opts.fill()
	if opts.Rng == nil {
		panic("anf: Options.Rng is required")
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, run.Err()
	}
	done := run.Stage("anf")
	R := opts.Trials
	ctx, workers := run.Context(), run.Workers()
	cur := make([]uint64, n*R)
	next := make([]uint64, n*R)
	for v := 0; v < n; v++ {
		for t := 0; t < R; t++ {
			cur[v*R+t] = 1 << geometricBit(opts.Rng)
		}
	}
	first, err := estimateTotal(ctx, cur, n, R, workers)
	if err != nil {
		return nil, err
	}
	est := []float64{first}
	for h := 1; h <= opts.MaxHops; h++ {
		// Each round reads cur and writes disjoint node blocks of next,
		// so the propagation shards freely across the pool.
		if err := parallel.ForBlocks(ctx, workers, n, func(_, lo, hi int) {
			copy(next[lo*R:hi*R], cur[lo*R:hi*R])
			for v := lo; v < hi; v++ {
				row := next[v*R : v*R+R]
				for _, w := range g.Neighbors(v) {
					nb := cur[int(w)*R : int(w)*R+R]
					for t := 0; t < R; t++ {
						row[t] |= nb[t]
					}
				}
			}
		}); err != nil {
			return nil, err
		}
		cur, next = next, cur
		total, err := estimateTotal(ctx, cur, n, R, workers)
		if err != nil {
			return nil, err
		}
		est = append(est, total)
		if total <= est[len(est)-2]*(1+1e-6) {
			// Converged: drop the flat tail entry and stop.
			est = est[:len(est)-1]
			break
		}
	}
	done()
	return est, nil
}

// geometricBit samples a bit index with P(i) = 2^-(i+1), capped at 62.
func geometricBit(r *randx.Rand) int {
	i := 0
	for r.Float64() < 0.5 && i < 62 {
		i++
	}
	return i
}

// estimateTotal sums the per-node FM cardinality estimates with a
// fixed-shard ordered reduction, so the floating-point total is
// identical for every worker count.
func estimateTotal(ctx context.Context, masks []uint64, n, R, workers int) (float64, error) {
	return parallel.SumFloat64(ctx, workers, n, func(lo, hi int) float64 {
		var total float64
		for v := lo; v < hi; v++ {
			var sum float64
			for t := 0; t < R; t++ {
				sum += float64(lowestZeroBit(masks[v*R+t]))
			}
			total += math.Pow(2, sum/float64(R)) / phi
		}
		return total
	})
}

// lowestZeroBit returns the index of the least significant zero bit.
func lowestZeroBit(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<i) == 0 {
			return i
		}
	}
	return 64
}

// EffectiveDiameter returns the interpolated hop count at which the
// estimated hop plot reaches the given fraction of its final value.
func EffectiveDiameter(hop []float64, fraction float64) float64 {
	if len(hop) == 0 {
		return 0
	}
	target := fraction * hop[len(hop)-1]
	for h, v := range hop {
		if v >= target {
			if h == 0 {
				return 0
			}
			prev := hop[h-1]
			if v == prev {
				return float64(h)
			}
			return float64(h-1) + (target-prev)/(v-prev)
		}
	}
	return float64(len(hop) - 1)
}
