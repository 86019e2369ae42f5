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
//
// # Why the pruned LS scan is exact
//
// An under-reported LS under-calibrates the noise, so the pruning in
// MaxCommonNeighborsCtx only ever skips pairs that provably cannot beat
// a count already found. It rests on |N(u) ∩ N(v)| ≤ min(d_u, d_v):
//
//   - The scan starts with the exact best partner of the top-degree
//     node t, so best is a real common-neighbour count (best ≤ LS)
//     and every pair containing t is settled.
//   - A pair with an endpoint of degree ≤ best cannot exceed best, so
//     only the candidates of degree > best are ever sources, ranked by
//     descending degree (ties by ascending id). Each pair of candidates
//     is counted from its higher-ranked end u, whose partners v rank
//     after it, so min(d_u, d_v) = d_v, and a v with d_v ≤ best is
//     skipped.
//   - Once a source has d_u ≤ best, so does every later one, and every
//     pair it would count is bounded by d_v ≤ d_u ≤ best: the scan
//     stops.
//   - Within a source u, scanned against the bound lim = best read
//     when it started, the neighbours w are walked in ascending degree
//     and each adds one to the count of every partner v it reaches. A
//     partner's final count is at most its count so far plus the
//     number of neighbours not yet walked, so once the largest count
//     so far plus that number is ≤ lim, no partner of u can beat lim
//     and the walk stops. It stops only then, so it never drops a count
//     above lim, and the expensive hub neighbours, walked last, are
//     the ones it skips. The seed scan of t runs with lim = −1 and
//     never stops early.
//
// best only grows and always holds a real count, so any stale value a
// worker reads is still a valid bound. A source whose walk stopped
// reports a count ≤ lim ≤ best, which leaves best unchanged. The result
// is the exact maximum, not an estimate, for every worker count and
// interleaving.
//
// # Why the memoised facts are exact and safe
//
// LS(G) and the exact triangle count Δ(G) are integers fixed by the
// graph: ε, δ and β enter the release only through SmoothFromLS and the
// noise. So the releases read both from a memo on the *graph.Graph,
// computed by the two kernels on a graph's first release and reused by
// every later one (every fit of a stored dataset, every cell of an ε
// sweep), and each release applies SmoothFromLS for its own β. A hit
// returns the very integers the kernels would, so the released bits
// are unchanged. It is safe because graphs are immutable: the memo
// lives on the graph it was derived from, a toggled neighbour
// (WithEdgeToggled) is a new Graph with an empty memo that gets its own
// LS and Δ, and the key's type is unexported here, so no other package
// can read or plant an LS. A pair is stored only once both kernels
// have returned without error, and a hit checks the run's context
// before any charge or noise, as the kernels would. The raw kernels
// themselves (MaxCommonNeighborsCtx, stats.TrianglesCtx) stay uncached.
package smoothsens

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// MaxCommonNeighborsCtx returns max over node pairs u ≠ v of
// |N(u) ∩ N(v)|, the local sensitivity of the triangle count, by the
// degree-pruned scan described in the package comment. Its cost is the
// two-hop walk of the few sources whose degree exceeds the running
// maximum, not Σ_w d_w² over every source, cut short further once a
// source's unwalked neighbours cannot lift any partner past the
// maximum. The candidate sources are sharded under run; each worker
// reuses one O(n) two-hop scratch array and one neighbour buffer of
// the maximum degree, and the running maximum is shared through an
// atomic, so the exact result is identical for every worker count.
// The context is checked between candidate blocks; a cancelled run
// returns run.Err().
func MaxCommonNeighborsCtx(run *pipeline.Run, g *graph.Graph) (int, error) {
	n := g.NumNodes()
	if n < 2 {
		return 0, run.Err()
	}
	off, adj := g.CSR()
	// Seed the bound with the top-ranked node's exact best partner.
	top := int32(0)
	for v := int32(1); v < int32(n); v++ {
		if off[v+1]-off[v] > off[top+1]-off[top] {
			top = v
		}
	}
	if err := run.Err(); err != nil {
		return 0, err
	}
	first, firstOrder := make([]int32, n), make([]uint64, off[top+1]-off[top])
	var best atomic.Int32
	best.Store(scan(first, firstOrder, off, adj, top, math.MaxInt32, -1))

	// Only a node of degree > best can share more than best neighbours
	// with anyone. Rank those candidates by descending degree (ties by
	// ascending id, so top comes first) and scan each source against the
	// candidates ranked after it.
	cands := rankAbove(off, off[top+1]-off[top], best.Load())
	if len(cands) > 0 {
		cands = cands[1:]
	}
	blocks := parallel.Blocks(len(cands), parallel.DefaultShards)
	w := min(run.Workers(), len(blocks))
	counts := make([][]int32, max(w, 1))
	orders := make([][]uint64, len(counts))
	counts[0], orders[0] = first, firstOrder
	for i := 1; i < len(counts); i++ {
		counts[i], orders[i] = make([]int32, n), make([]uint64, len(firstOrder))
	}
	err := parallel.RunIndexed(run.Context(), w, len(blocks), func(worker, sh int) error {
		for _, u := range cands[blocks[sh].Lo:blocks[sh].Hi] {
			du, lim := off[u+1]-off[u], best.Load()
			if du <= lim {
				// Every later source has degree ≤ du ≤ best: done.
				return nil
			}
			c := scan(counts[worker], orders[worker], off, adj, u, du, lim)
			for c > lim && !best.CompareAndSwap(lim, c) {
				lim = best.Load()
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return int(best.Load()), nil
}

// scan returns max |N(u) ∩ N(v)| over the nodes v ranked after u (by
// degree du, in the order of rankAbove) with degree > lim, counting the
// two-hop paths u–w–v into count, which is all zero before and after.
// du = MaxInt32 and lim = −1 admit every v ≠ u. It walks u's
// neighbours w in ascending degree, sorted in order (capacity ≥ du),
// and stops once no partner can exceed lim any more: then it returns a
// count ≤ lim, not necessarily u's exact best.
func scan(count []int32, order []uint64, off, adj []int32, u, du, lim int32) int32 {
	nbrs := adj[off[u]:off[u+1]]
	order = order[:len(nbrs)]
	for i, w := range nbrs {
		order[i] = uint64(off[w+1]-off[w])<<32 | uint64(w)
	}
	slices.Sort(order)
	var best int32
	walked, walk := len(order), 0
	for i, key := range order {
		// Each unwalked neighbour adds at most one to any count.
		if best+int32(len(order)-i) <= lim {
			walked = i
			break
		}
		w := int32(uint32(key))
		nw := adj[off[w]:off[w+1]]
		walk += len(nw)
		for _, v := range nw {
			dv := off[v+1] - off[v]
			if v == u || dv <= lim || dv > du || dv == du && v < u {
				continue
			}
			count[v]++
			best = max(best, count[v])
		}
	}
	// Zero the counts by walking the same prefix again, unless clearing
	// the whole array is cheaper: no list of touched nodes is kept.
	if walk > len(count)/8 {
		clear(count)
		return best
	}
	for _, key := range order[:walked] {
		w := uint32(key)
		for _, v := range adj[off[w]:off[w+1]] {
			count[v] = 0
		}
	}
	return best
}

// rankAbove returns the nodes of degree > lim in descending degree
// order, ties by ascending id, given the top degree: a stable counting
// sort on degree, so no n-length order is built when few nodes clear the
// bound.
func rankAbove(off []int32, top, lim int32) []int32 {
	if top <= lim {
		return nil
	}
	n := int32(len(off) - 1)
	// start[top-d] is first the count, then the output position, of the
	// nodes of degree d.
	start := make([]int32, top-lim+1)
	for v := int32(0); v < n; v++ {
		if d := off[v+1] - off[v]; d > lim {
			start[top-d+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	out := make([]int32, start[len(start)-1])
	for v := int32(0); v < n; v++ {
		if d := off[v+1] - off[v]; d > lim {
			out[start[top-d]] = v
			start[top-d]++
		}
	}
	return out
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
	ls, err := MaxCommonNeighborsCtx(run, g)
	if err != nil {
		return 0, err
	}
	return SmoothFromLS(ls, g.NumNodes(), beta), nil
}

// SmoothFromLS returns the β-smooth sensitivity of the triangle count
// of a graph on n nodes whose local sensitivity is C (the value of
// MaxCommonNeighborsCtx), so a caller holding C need not rescan the
// graph. It maximizes e^{−βs}·min(C+s, n−2) over integer s ≥ 0: the
// unconstrained maximizer of e^{−βs}(C+s) is s* = 1/β − C, and the
// objective is unimodal in s, so checking s = 0, ⌊s*⌋, ⌈s*⌉ and the cap
// point suffices. β must be positive.
func SmoothFromLS(C, n int, beta float64) float64 {
	if beta <= 0 || math.IsNaN(beta) {
		panic(fmt.Sprintf("smoothsens: beta must be positive, got %v", beta))
	}
	if n < 3 {
		return 0
	}
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

// factsKey is the key of a graph's triangle-release facts in its memo
// (graph.Graph.Memo). Its type is unexported, so no other package can
// read or plant an LS.
type factsKey struct{}

// facts are the two integers of a graph that the triangle release
// reads: neither depends on ε, δ or the noise.
type facts struct {
	ls  int   // LS(G), MaxCommonNeighborsCtx
	tri int64 // Δ(G), stats.TrianglesCtx
}

// triangleFacts returns LS(g) and Δ(g) from g's memo, or runs both
// kernels under run and memoises their results. Only a pair of
// results from kernels that both returned without error is stored: a
// cancelled or failed scan stores nothing. Concurrent first calls each
// compute and store equal facts. A hit still returns run.Err(), so a
// cancelled run is refused before any charge or noise either way.
func triangleFacts(run *pipeline.Run, g *graph.Graph) (ls int, tri int64, err error) {
	if v, ok := g.Memo(factsKey{}); ok {
		f := v.(facts)
		return f.ls, f.tri, run.Err()
	}
	if ls, err = MaxCommonNeighborsCtx(run, g); err != nil {
		return 0, 0, err
	}
	if tri, err = stats.TrianglesCtx(run, g); err != nil {
		return 0, 0, err
	}
	g.SetMemo(factsKey{}, facts{ls: ls, tri: tri})
	return ls, tri, nil
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
// to accountants.
const Query = "triangles/smooth-laplace"

// PrivateTrianglesCtx releases an (ε, δ)-differentially private
// triangle count of g via the smooth-sensitivity Laplace mechanism
// under a pipeline Run: LS(g) and Δ(g) come from g's memo, or from the
// sensitivity scan and the exact count, which check the context between
// shards, and a "triangle-release" stage event pair is emitted. The
// (ε, δ) charge is recorded on acc (nil records nothing and never
// refuses) once LS(g) is known but before any noise is drawn, and a
// refused charge returns the error with no noise consumed from rng. A
// run that is never cancelled consumes one Laplace draw from rng, and the
// released value is identical for every worker count and with or
// without an accountant; a cancelled run returns run.Err() before any
// noise is drawn.
func PrivateTrianglesCtx(run *pipeline.Run, acc *accountant.Accountant, g *graph.Graph, eps, delta float64, rng *randx.Rand) (Result, error) {
	done := run.Stage("triangle-release")
	beta := BetaFor(eps, delta)
	ls, exact, err := triangleFacts(run, g)
	if err != nil {
		return Result{}, err
	}
	ss := SmoothFromLS(ls, g.NumNodes(), beta)
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
