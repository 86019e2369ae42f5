// Package smoothsens implements the Nissim–Raskhodnikova–Smith (STOC'07)
// smooth-sensitivity mechanism for the triangle count, used in steps 4–5
// of the paper's Algorithm 1 to release Δ̃ with (ε/2, δ)-differential
// privacy.
//
// For f(G) = number of triangles, the local sensitivity under edge
// toggles is LS(G) = max_{u≠v} |N(u) ∩ N(v)|: toggling edge {u, v}
// changes the count by exactly the number of common neighbours. The
// local sensitivity at edit distance s is A^(s)(G) = min(LS(G)+s, n−2),
// because one edge flip moves any common-neighbour count by at most one
// and a targeted flip achieves it, while n−2 is the ceiling. The
// β-smooth sensitivity is then SS_β(G) = max_{s≥0} e^{−βs}·A^(s)(G),
// which this package maximizes in closed form (and tests by exhaustive
// scan). Adding 2·SS_β/ε · Lap(1) noise with β = ε/(2·ln(2/δ)) gives
// (ε, δ)-DP (Theorem 4.8 of the paper).
package smoothsens

import (
	"fmt"
	"math"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// MaxCommonNeighborsCtx returns max over node pairs u ≠ v of
// |N(u) ∩ N(v)|, the local sensitivity of the triangle count. It runs in
// O(Σ_w d_w²) time by accumulating two-hop counts per source node,
// sharded over source blocks under run: each worker reuses one O(n)
// two-hop scratch array across the shards it processes, and the integer
// max-reduction is identical for every worker count. The context is
// checked between source blocks; a cancelled run returns run.Err().
func MaxCommonNeighborsCtx(run *pipeline.Run, g *graph.Graph) (int, error) {
	n := g.NumNodes()
	if n < 2 {
		return 0, run.Err()
	}
	w := run.Workers()
	blocks := parallel.Blocks(n, parallel.DefaultShards)
	if w > len(blocks) {
		w = len(blocks)
	}
	type scratch struct {
		count   []int32
		touched []int32
		best    int
	}
	parts := make([]scratch, w)
	for i := range parts {
		parts[i] = scratch{count: make([]int32, n)}
	}
	err := parallel.RunIndexed(run.Context(), w, len(blocks), func(worker, sh int) {
		sc := &parts[worker]
		count := sc.count
		for u := blocks[sh].Lo; u < blocks[sh].Hi; u++ {
			sc.touched = sc.touched[:0]
			for _, w := range g.Neighbors(u) {
				for _, v := range g.Neighbors(int(w)) {
					if int(v) == u {
						continue
					}
					if count[v] == 0 {
						sc.touched = append(sc.touched, v)
					}
					count[v]++
				}
			}
			for _, v := range sc.touched {
				// Each unordered pair is seen from both sides; restricting
				// to v > u halves the work without missing the max.
				if int(v) > u && int(count[v]) > sc.best {
					sc.best = int(count[v])
				}
				count[v] = 0
			}
		}
	})
	if err != nil {
		return 0, err
	}
	best := 0
	for _, sc := range parts {
		if sc.best > best {
			best = sc.best
		}
	}
	return best, nil
}

// SensitivityAtDistance returns A^(s)(G) = min(LS(G)+s, n−2), the
// maximum local sensitivity over graphs within edit distance s of a
// graph on n nodes with local sensitivity ls (MaxCommonNeighborsCtx).
func SensitivityAtDistance(ls, n, s int) float64 {
	if n < 3 {
		return 0
	}
	return math.Min(float64(ls+s), float64(n-2))
}

// SmoothCtx returns the β-smooth sensitivity of the triangle count at g
// under a pipeline Run (see MaxCommonNeighborsCtx for the cancellation
// contract). β must be positive.
func SmoothCtx(run *pipeline.Run, g *graph.Graph, beta float64) (float64, error) {
	if beta <= 0 || math.IsNaN(beta) {
		panic(fmt.Sprintf("smoothsens: beta must be positive, got %v", beta))
	}
	n := g.NumNodes()
	if n < 3 {
		return 0, run.Err()
	}
	ls, err := MaxCommonNeighborsCtx(run, g)
	if err != nil {
		return 0, err
	}
	return smoothFromLS(ls, n, beta), nil
}

// smoothFromLS maximizes e^{−βs}·min(C+s, n−2) over integer s ≥ 0.
// The unconstrained maximizer of e^{−βs}(C+s) is s* = 1/β − C; the
// objective is unimodal in s, so checking s = 0, ⌊s*⌋, ⌈s*⌉ and the cap
// point suffices.
func smoothFromLS(C, n int, beta float64) float64 {
	capVal := float64(n - 2)
	obj := func(s float64) float64 {
		v := float64(C) + s
		if v > capVal {
			v = capVal
		}
		return math.Exp(-beta*s) * v
	}
	best := obj(0)
	sStar := 1/beta - float64(C)
	for _, s := range []float64{math.Floor(sStar), math.Ceil(sStar), capVal - float64(C)} {
		if s > 0 {
			if v := obj(s); v > best {
				best = v
			}
		}
	}
	return best
}

// BetaFor returns the largest admissible β for Theorem 4.8:
// β = ε / (2·ln(2/δ)). ε and δ must be positive with δ < 1.
func BetaFor(eps, delta float64) float64 {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("smoothsens: invalid (eps=%v, delta=%v)", eps, delta))
	}
	return eps / (2 * math.Log(2/delta))
}

// Result carries a private triangle count together with the calibration
// quantities, so experiments can report the magnitude of the added
// noise. Only Noisy is differentially private; Exact is the sensitive
// count, and SmoothSen/Scale depend on the sensitive graph and are not
// released by the mechanism (Beta is public, derived from ε and δ).
type Result struct {
	Noisy     float64 // Δ̃ = Δ + 2·SS_β/ε · Lap(1); safe to release
	Exact     int64   // the true count (sensitive; not for release)
	SmoothSen float64 // SS_β(G) (sensitive; not for release)
	Beta      float64 // β used (public)
	Scale     float64 // 2·SS_β/ε, the Laplace scale applied (sensitive)
}

// Query is the name under which the (ε, δ) Laplace release is charged
// to accountants; QueryPure names the pure-ε Cauchy release.
const (
	Query     = "triangles/smooth-laplace"
	QueryPure = "triangles/smooth-cauchy"
)

// PrivateTrianglesCtx releases an (ε, δ)-differentially private
// triangle count of g via the smooth-sensitivity Laplace mechanism
// under a pipeline Run: the sensitivity scan and the exact count check
// the context between shards, and a "triangle-release" stage event pair
// is emitted. The (ε, δ) charge is recorded on acc (nil records
// nothing and never refuses) after the sensitivity scan but before any
// noise is drawn, and a refused charge returns the error with no noise
// consumed from rng. A run that is never cancelled consumes one Laplace
// draw from rng, and the released value is identical for every worker
// count and with or without an accountant; a cancelled run returns
// run.Err() before any noise is drawn.
func PrivateTrianglesCtx(run *pipeline.Run, acc *accountant.Accountant, g *graph.Graph, eps, delta float64, rng *randx.Rand) (Result, error) {
	done := run.Stage("triangle-release")
	beta := BetaFor(eps, delta)
	ss, err := SmoothCtx(run, g, beta)
	if err != nil {
		return Result{}, err
	}
	exact, err := stats.TrianglesCtx(run, g)
	if err != nil {
		return Result{}, err
	}
	mech := accountant.SmoothLaplace{SmoothSens: ss, Beta: beta, Eps: eps, Delta: delta}
	if err := acc.Charge(Query, mech); err != nil {
		return Result{}, err
	}
	done()
	return Result{
		Noisy:     mech.Apply(float64(exact), rng),
		Exact:     exact,
		SmoothSen: ss,
		Beta:      beta,
		Scale:     mech.Scale(),
	}, nil
}

// BetaForPure returns the admissible β for the pure-ε Cauchy
// mechanism, ε/6: the standard Cauchy density ∝ 1/(1+z²) is
// (ε/6, ε/6)-admissible (Nissim et al.), so noise 6·SS_β/ε · Cauchy(1)
// at β = ε/6 gives (ε, 0)-DP. ε must be positive.
func BetaForPure(eps float64) float64 {
	if eps <= 0 || math.IsNaN(eps) {
		panic(fmt.Sprintf("smoothsens: invalid eps=%v", eps))
	}
	return eps / 6
}

// PrivateTrianglesPureCtx releases an (ε, 0)-differentially private
// triangle count via the smooth-sensitivity Cauchy mechanism — the
// pure-ε alternative to the paper's (ε, δ) Laplace release, with
// heavier-tailed noise as the price of dropping δ. The charge is
// recorded on acc (nil records nothing) before the single Cauchy draw.
func PrivateTrianglesPureCtx(run *pipeline.Run, acc *accountant.Accountant, g *graph.Graph, eps float64, rng *randx.Rand) (Result, error) {
	done := run.Stage("triangle-release")
	beta := BetaForPure(eps)
	ss, err := SmoothCtx(run, g, beta)
	if err != nil {
		return Result{}, err
	}
	exact, err := stats.TrianglesCtx(run, g)
	if err != nil {
		return Result{}, err
	}
	mech := accountant.SmoothCauchy{SmoothSens: ss, Beta: beta, Eps: eps}
	if err := acc.Charge(QueryPure, mech); err != nil {
		return Result{}, err
	}
	done()
	return Result{
		Noisy:     mech.Apply(float64(exact), rng),
		Exact:     exact,
		SmoothSen: ss,
		Beta:      beta,
		Scale:     mech.Scale(),
	}, nil
}
