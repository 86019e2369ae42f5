// Package optimize provides the derivative-free optimizers used by the
// moment-matching estimator: Nelder–Mead simplex descent (the same
// algorithm as MATLAB's fminsearch, which Gleich's reference code used)
// plus coarse grid search and multistart driving, with box constraints
// handled by projection.
package optimize

import (
	"context"
	"math"

	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// Func is an objective to minimize.
type Func func(x []float64) float64

// Result is the outcome of a minimization.
type Result struct {
	X         []float64
	F         float64
	Evals     int
	Converged bool
}

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	// Step is the initial simplex edge length (default 0.1).
	Step float64
	// MaxIter bounds the number of iterations (default 400).
	MaxIter int
}

// A descent has converged once the simplex function spread is below
// tolF and its diameter is below tolX.
const (
	tolF = 1e-10
	tolX = 1e-9
)

func (o *NelderMeadOptions) fill() {
	if o.Step == 0 {
		o.Step = 0.1
	}
	if o.MaxIter == 0 {
		o.MaxIter = 400
	}
}

// NelderMeadCtx minimizes f starting from x0 with the standard
// reflection/expansion/contraction/shrink simplex method (coefficients
// 1, 2, 0.5, 0.5). Cancellation is checked once per simplex iteration:
// a cancelled context stops the descent and returns ctx.Err() together
// with the best point seen so far (which the caller must treat as
// unusable). A nil context cannot be cancelled.
func NelderMeadCtx(ctx context.Context, f Func, x0 []float64, opts NelderMeadOptions) (Result, error) {
	opts.fill()
	d := len(x0)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	// Build initial simplex.
	simplex := make([][]float64, d+1)
	fvals := make([]float64, d+1)
	for i := range simplex {
		p := append([]float64(nil), x0...)
		if i > 0 {
			p[i-1] += opts.Step
		}
		simplex[i] = p
		fvals[i] = eval(p)
	}
	order := make([]int, d+1)
	centroid := make([]float64, d)
	trial := make([]float64, d)
	trial2 := make([]float64, d)
	converged := false
	var ctxErr error
	for iter := 0; iter < opts.MaxIter; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
		}
		for i := range order {
			order[i] = i
		}
		sortByValue(order, fvals)
		best, worst := order[0], order[d]
		// Convergence checks.
		spread := math.Abs(fvals[worst] - fvals[best])
		diam := 0.0
		for _, i := range order[1:] {
			for j := 0; j < d; j++ {
				diam = math.Max(diam, math.Abs(simplex[i][j]-simplex[best][j]))
			}
		}
		if spread < tolF && diam < tolX {
			converged = true
			break
		}
		// Centroid of all but worst.
		for j := 0; j < d; j++ {
			centroid[j] = 0
		}
		for _, i := range order[:d] {
			for j := 0; j < d; j++ {
				centroid[j] += simplex[i][j]
			}
		}
		for j := 0; j < d; j++ {
			centroid[j] /= float64(d)
		}
		// Reflection.
		for j := 0; j < d; j++ {
			trial[j] = centroid[j] + (centroid[j] - simplex[worst][j])
		}
		fr := eval(trial)
		secondWorst := order[d-1]
		switch {
		case fr < fvals[best]:
			// Expansion.
			for j := 0; j < d; j++ {
				trial2[j] = centroid[j] + 2*(centroid[j]-simplex[worst][j])
			}
			fe := eval(trial2)
			if fe < fr {
				copy(simplex[worst], trial2)
				fvals[worst] = fe
			} else {
				copy(simplex[worst], trial)
				fvals[worst] = fr
			}
		case fr < fvals[secondWorst]:
			copy(simplex[worst], trial)
			fvals[worst] = fr
		default:
			// Contraction (outside if reflection helped, else inside).
			if fr < fvals[worst] {
				for j := 0; j < d; j++ {
					trial2[j] = centroid[j] + 0.5*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < d; j++ {
					trial2[j] = centroid[j] - 0.5*(centroid[j]-simplex[worst][j])
				}
			}
			fc := eval(trial2)
			if fc < math.Min(fr, fvals[worst]) {
				copy(simplex[worst], trial2)
				fvals[worst] = fc
			} else {
				// Shrink towards best.
				for _, i := range order[1:] {
					for j := 0; j < d; j++ {
						simplex[i][j] = simplex[best][j] + 0.5*(simplex[i][j]-simplex[best][j])
					}
					fvals[i] = eval(simplex[i])
				}
			}
		}
	}
	bi := 0
	for i := 1; i <= d; i++ {
		if fvals[i] < fvals[bi] {
			bi = i
		}
	}
	return Result{X: append([]float64(nil), simplex[bi]...), F: fvals[bi], Evals: evals, Converged: converged}, ctxErr
}

// sortByValue orders the vertex indices in order by ascending fvals
// with an insertion sort, allocating nothing. sort.Slice insertion-sorts
// 12 or fewer elements (a simplex in up to 11 dimensions), and this is
// the same sort, so tied vertices come out in sort.Slice's order and
// fixed-seed fits keep their bits.
func sortByValue(order []int, fvals []float64) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && fvals[order[j]] < fvals[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// Clamp projects x into the box [lo, hi] componentwise, in place.
func Clamp(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// GridSearchCtx evaluates f on a regular grid with the given number of
// points per axis (inclusive of bounds) and returns the best point.
// Cancellation is checked every 256 evaluations; a nil context cannot
// be cancelled.
func GridSearchCtx(ctx context.Context, f Func, lo, hi []float64, pointsPerAxis int) (Result, error) {
	d := len(lo)
	if pointsPerAxis < 2 {
		pointsPerAxis = 2
	}
	x := make([]float64, d)
	idx := make([]int, d)
	best := Result{F: math.Inf(1)}
	evals := 0
	for {
		if ctx != nil && evals&255 == 0 {
			if err := ctx.Err(); err != nil {
				return best, err
			}
		}
		for j := 0; j < d; j++ {
			x[j] = lo[j] + (hi[j]-lo[j])*float64(idx[j])/float64(pointsPerAxis-1)
		}
		v := f(x)
		evals++
		if v < best.F {
			best.F = v
			best.X = append(best.X[:0], x...)
		}
		// Advance mixed-radix counter.
		j := 0
		for ; j < d; j++ {
			idx[j]++
			if idx[j] < pointsPerAxis {
				break
			}
			idx[j] = 0
		}
		if j == d {
			break
		}
	}
	best.Evals = evals
	best.Converged = true
	best.X = append([]float64(nil), best.X...)
	return best, nil
}

// MultiStartCtx runs Nelder–Mead from the grid-search optimum and from
// additional random starts inside the box, and returns the best result
// found. The descents minimize a boxed objective: a candidate x is
// projected to y in the box and, with penalty = |x − y|², the wrapper
// returns f(y)·(1+penalty) + penalty, which is f(x) inside the box. The
// winner is projected into the box and f is evaluated there once more.
//
// The descents run concurrently on run's worker budget. The restart
// points are drawn from rng serially before any descent begins, the
// descents are deterministic, and the winner is chosen by scanning
// results in start order with a strict improvement rule — so the result
// is identical for every worker count. f must be safe for concurrent
// calls. The seeding grid search checks run's context periodically, the
// descents check it between simplex iterations and between starts, and
// a cancelled run makes the whole call return its context's error.
func MultiStartCtx(run *pipeline.Run, f Func, lo, hi []float64, randomStarts, gridPoints int, rng *randx.Rand, nm NelderMeadOptions) (Result, error) {
	ctx := run.Context()
	// boxed projects x into y, a buffer of len(x) owned by one descent:
	// the descents run concurrently, so they cannot share one.
	boxed := func(x, y []float64) float64 {
		penalty := 0.0
		for i := range x {
			y[i] = x[i]
			if y[i] < lo[i] {
				penalty += (lo[i] - y[i]) * (lo[i] - y[i])
				y[i] = lo[i]
			}
			if y[i] > hi[i] {
				penalty += (y[i] - hi[i]) * (y[i] - hi[i])
				y[i] = hi[i]
			}
		}
		return f(y)*(1+penalty) + penalty
	}
	seed, err := GridSearchCtx(ctx, f, lo, hi, gridPoints)
	if err != nil {
		return Result{}, err
	}
	// Start points: the grid optimum first, then the random restarts,
	// drawn serially so the points do not depend on scheduling.
	starts := make([][]float64, 1+randomStarts)
	starts[0] = seed.X
	for s := 1; s < len(starts); s++ {
		x0 := make([]float64, len(lo))
		for i := range x0 {
			x0[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		starts[s] = x0
	}
	results := make([]Result, len(starts))
	runErr := parallel.Run(ctx, run.Workers(), len(starts), func(s int) {
		// A descent that observes cancellation returns early; its
		// partial result is discarded below via the shared context
		// error, so the per-start error can be dropped here.
		y := make([]float64, len(lo))
		results[s], _ = NelderMeadCtx(ctx, func(x []float64) float64 { return boxed(x, y) }, starts[s], nm)
	})
	if runErr != nil {
		return Result{}, runErr
	}
	// A descent may have aborted mid-run without Run noticing (the
	// shard itself completed); reject the fan-out wholesale.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	best := results[0]
	evals := seed.Evals + results[0].Evals
	for _, r := range results[1:] {
		evals += r.Evals
		if r.F < best.F {
			best = r
		}
	}
	best.Evals = evals
	Clamp(best.X, lo, hi)
	best.F = f(best.X)
	return best, nil
}
