// Package kronfit implements KronFit, the Leskovec–Faloutsos (ICML'07)
// approximate maximum-likelihood estimator for stochastic Kronecker
// graph parameters — the second baseline of the paper's Table 1.
//
// The likelihood of a graph under an SKG requires a node correspondence
// σ between graph nodes and Kronecker node labels:
//
//	ll(Θ, σ) = Σ_{(i,j)∈E} log P_{σ(i)σ(j)} + Σ_{(i,j)∉E} log(1 − P_{σ(i)σ(j)})
//
// over ordered pairs (an undirected graph contributes both directions of
// each edge). KronFit ascends an estimate of E_σ[∇ll] where σ is sampled
// with a Metropolis chain over node swaps. The "empty graph" sum over
// all pairs is permutation invariant and evaluated in closed form with a
// second-order Taylor expansion (log(1−p) ≈ −p − p²/2); the diagonal is
// handled exactly, and per-edge terms use exact logarithms.
//
// Because the 2×2 initiator admits only (K+1)(K+2)/2 distinct per-pair
// probabilities, the per-edge likelihood and gradient kernels are
// tabulated per (na, nc) quadrant-count pair on every parameter update
// (see state.setTheta), leaving no transcendental calls in the
// Metropolis, likelihood, or gradient inner loops.
package kronfit

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// Options configures a fit.
type Options struct {
	// K is the Kronecker power; 2^K must be >= g.NumNodes(). 0 infers
	// the smallest adequate K.
	K int
	// Init is the starting initiator (default {0.9, 0.6, 0.2}).
	Init skg.Initiator
	// Iters is the number of gradient ascent steps (default 60).
	Iters int
	// Rng is required.
	Rng *randx.Rand
}

// Each gradient step resets the permutation to the degree-seeded
// arrangement, burns the Metropolis chain in for warmupSweeps·2^K
// proposals, then averages the gradient over permSamples permutations
// taken 2^K/sampleGap proposals apart. Restarting the chain every
// step keeps it from descending into permutations that overfit the
// current parameters: with an unbounded chain the Metropolis acceptance
// is effectively greedy (per-swap likelihood deltas are large), and
// profile-likelihood overfitting drags the parameters toward a
// degenerate core–periphery solution. The restarted chain reproduces
// the recovery quality reported for KronFit in the paper's Table 1.
//
// Step t moves the parameters step0/(1+t/15) along the normalized
// gradient, and initiator entries are clamped to [minParam, maxParam],
// away from {0, 1} where the log-likelihood degenerates.
const (
	permSamples  = 4
	sampleGap    = 4
	warmupSweeps = 2
	step0        = 0.04
	minParam     = 0.001
	maxParam     = 0.9999
)

func (o *Options) fill(n int) error {
	if o.K == 0 {
		o.K = 1
		for 1<<o.K < n {
			o.K++
		}
	}
	if 1<<o.K < n {
		return fmt.Errorf("kronfit: 2^%d < %d nodes", o.K, n)
	}
	if o.Init == (skg.Initiator{}) {
		o.Init = skg.Initiator{A: 0.9, B: 0.6, C: 0.2}
	}
	if o.Iters == 0 {
		o.Iters = 60
	}
	if o.Rng == nil {
		return fmt.Errorf("kronfit: Options.Rng is required")
	}
	return nil
}

// Result is a fitted initiator with diagnostics.
type Result struct {
	Init          skg.Initiator
	K             int
	LogLikelihood float64 // approximate ll at the final parameters/permutation
	Iters         int
}

// state carries the MCMC configuration: the graph embedded in 2^K
// Kronecker slots via permutation sigma.
//
// With a 2×2 initiator there are only (K+1)(K+2)/2 distinct per-pair
// probabilities — one per quadrant-count pair (na, nc) — so every
// per-edge transcendental (math.Exp, math.Log1p and the gradient
// divisions) is precomputed into flat tables on setTheta, and the
// Metropolis/likelihood/gradient inner loops reduce to two popcounts
// and an array read per edge. The tables are filled with exactly the
// expressions the direct formulas used, so every sum and every
// Metropolis accept decision is bit-identical to the untabulated code.
type state struct {
	g       *graph.Graph
	k       int
	n       int // 2^k slots; nodes >= g.NumNodes() are isolated padding
	sigma   []int
	theta   skg.Initiator
	la      float64 // log A
	lb      float64
	lc      float64
	workers int // resolved goroutine bound for ll/grad sums
	// Lookup tables indexed by na*(k+1)+nc (entries with na+nc > k are
	// unused); refreshed by setTheta.
	edgeTab []float64 // log P − log(1−P)
	gradTab []float64 // the three per-edge gradient coefficients, interleaved
}

func newState(g *graph.Graph, k int, init skg.Initiator, rng *randx.Rand) *state {
	n := 1 << k
	s := &state{g: g, k: k, n: n, sigma: make([]int, n), workers: 1}
	s.edgeTab = make([]float64, (k+1)*(k+1))
	s.gradTab = make([]float64, 3*(k+1)*(k+1))
	s.setTheta(init)
	// Initialize sigma greedily: high-degree graph nodes take Kronecker
	// labels with few 1-bits (highest expected degree when a+b >= b+c,
	// the canonical orientation).
	bydeg := make([]int, n)
	for i := range bydeg {
		bydeg[i] = i
	}
	deg := func(i int) int {
		if i < g.NumNodes() {
			return g.Degree(i)
		}
		return 0
	}
	sort.Slice(bydeg, func(x, y int) bool { return deg(bydeg[x]) > deg(bydeg[y]) })
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	sort.Slice(labels, func(x, y int) bool {
		px, py := bits.OnesCount64(uint64(labels[x])), bits.OnesCount64(uint64(labels[y]))
		if px != py {
			return px < py
		}
		return labels[x] < labels[y]
	})
	for rank, node := range bydeg {
		s.sigma[node] = labels[rank]
	}
	_ = rng
	return s
}

func (s *state) setTheta(t skg.Initiator) {
	s.theta = t
	s.la = math.Log(t.A)
	s.lb = math.Log(t.B)
	s.lc = math.Log(t.C)
	// Refresh the per-(na, nc) kernels. The expressions mirror the
	// direct per-edge formulas term for term (see edgeTerm and grad), so
	// the tabulated values are the exact floats the direct code produced.
	a, b, c := t.A, t.B, t.C
	for na := 0; na <= s.k; na++ {
		for nc := 0; na+nc <= s.k; nc++ {
			nb := s.k - na - nc
			logP := float64(na)*s.la + float64(nb)*s.lb + float64(nc)*s.lc
			p := math.Exp(logP)
			if p > 1-1e-12 {
				p = 1 - 1e-12
			}
			idx := na*(s.k+1) + nc
			s.edgeTab[idx] = logP - math.Log1p(-p)
			inv := 1 / (1 - p)
			s.gradTab[3*idx] = 2 * float64(na) / a * inv
			s.gradTab[3*idx+1] = 2 * float64(nb) / b * inv
			s.gradTab[3*idx+2] = 2 * float64(nc) / c * inv
		}
	}
}

// pairIndex returns the table index for Kronecker labels u, v: with
// nc = popcount(u&v) ones-quadrants and na = k − popcount(u|v)
// zero-quadrants, the index is na*(k+1)+nc.
func (s *state) pairIndex(u, v int) int {
	nc := bits.OnesCount64(uint64(u & v))
	na := s.k - bits.OnesCount64(uint64(u|v))
	return na*(s.k+1) + nc
}

// quadrants returns the initiator cell counts for Kronecker labels u, v.
func (s *state) quadrants(u, v int) (na, nb, nc int) {
	nc = bits.OnesCount64(uint64(u & v))
	na = s.k - bits.OnesCount64(uint64(u|v))
	nb = s.k - na - nc
	return
}

// edgeTerm returns log P_uv − log(1 − P_uv) for Kronecker labels u, v,
// by table lookup.
func (s *state) edgeTerm(u, v int) float64 {
	return s.edgeTab[s.pairIndex(u, v)]
}

// edgeTermDirect is the untabulated formula edgeTerm's table is filled
// from; it exists as the reference for the table-consistency tests.
func (s *state) edgeTermDirect(u, v int) float64 {
	na, nb, nc := s.quadrants(u, v)
	logP := float64(na)*s.la + float64(nb)*s.lb + float64(nc)*s.lc
	p := math.Exp(logP)
	if p > 1-1e-12 {
		p = 1 - 1e-12
	}
	return logP - math.Log1p(-p)
}

// emptyLL approximates Σ_{u≠v} log(1−P_uv) over all ordered off-diagonal
// Kronecker pairs: the Taylor series over all pairs minus the exact
// diagonal contribution.
func (s *state) emptyLL() float64 {
	a, b, c := s.theta.A, s.theta.B, s.theta.C
	k := float64(s.k)
	s1 := math.Pow(a+2*b+c, k)
	s2 := math.Pow(a*a+2*b*b+c*c, k)
	total := -s1 - s2/2
	// Exact diagonal: P_uu = a^{k-i} c^i for popcount(u) = i.
	diag := 0.0
	choose := 1.0
	for i := 0; i <= s.k; i++ {
		p := math.Pow(a, k-float64(i)) * math.Pow(c, float64(i))
		if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		diag += choose * math.Log1p(-p)
		choose = choose * float64(s.k-i) / float64(i+1)
	}
	return total - diag
}

// emptyGrad returns the gradient of emptyLL in (a, b, c).
func (s *state) emptyGrad() (ga, gb, gc float64) {
	a, b, c := s.theta.A, s.theta.B, s.theta.C
	k := float64(s.k)
	s1p := k * math.Pow(a+2*b+c, k-1)
	s2p := k * math.Pow(a*a+2*b*b+c*c, k-1)
	ga = -s1p - a*s2p
	gb = -2*s1p - 2*b*s2p
	gc = -s1p - c*s2p
	// Diagonal (exact), derivative of −Σ C(k,i) log(1−a^{k−i}c^i).
	choose := 1.0
	for i := 0; i <= s.k; i++ {
		ki := float64(s.k - i)
		fi := float64(i)
		p := math.Pow(a, ki) * math.Pow(c, fi)
		if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		q := choose / (1 - p)
		if a > 0 {
			ga += q * ki * p / a
		}
		if c > 0 {
			gc += q * fi * p / c
		}
		choose = choose * float64(s.k-i) / float64(i+1)
	}
	return ga, gb, gc
}

// ll returns the approximate log-likelihood at the current permutation.
// The per-edge sum shards over node ranges with a fixed-shard ordered
// reduction, so the float total is identical for every worker count.
func (s *state) ll() float64 {
	N := s.g.NumNodes()
	// A nil context cannot fail; FitCtx checks its Run per iteration.
	edges, _ := parallel.SumFloat64(nil, s.workers, N, func(lo, hi int) float64 {
		total := 0.0
		for u := lo; u < hi; u++ {
			su := s.sigma[u]
			for _, w := range s.g.Neighbors(u) {
				if int(w) > u {
					total += 2 * s.edgeTerm(su, s.sigma[w])
				}
			}
		}
		return total
	})
	return s.emptyLL() + edges
}

// grad returns the gradient of ll at the current permutation, with the
// per-edge sums sharded like ll.
func (s *state) grad() (ga, gb, gc float64) {
	ga, gb, gc = s.emptyGrad()
	N := s.g.NumNodes()
	blocks := parallel.Blocks(N, parallel.DefaultShards)
	parts := make([][3]float64, len(blocks))
	parallel.Run(nil, s.workers, len(blocks), func(sh int) {
		var pa, pb, pc float64
		for u := blocks[sh].Lo; u < blocks[sh].Hi; u++ {
			su := s.sigma[u]
			for _, w := range s.g.Neighbors(u) {
				if int(w) <= u {
					continue
				}
				// d/dθ [log P − log(1−P)] = (n_θ/θ) / (1−P), doubled for
				// the two edge directions; tabulated per (na, nc).
				t := s.gradTab[3*s.pairIndex(su, s.sigma[w]):]
				pa += t[0]
				pb += t[1]
				pc += t[2]
			}
		}
		parts[sh] = [3]float64{pa, pb, pc}
	})
	for _, p := range parts {
		ga += p[0]
		gb += p[1]
		gc += p[2]
	}
	return ga, gb, gc
}

// swapDelta computes ll(σ with x,y swapped) − ll(σ) in O((d_x+d_y)·1).
func (s *state) swapDelta(x, y int) float64 {
	sx, sy := s.sigma[x], s.sigma[y]
	delta := 0.0
	N := s.g.NumNodes()
	if x < N {
		for _, w := range s.g.Neighbors(x) {
			if int(w) == y {
				continue // P is symmetric: the (x,y) edge term is swap-invariant
			}
			sw := s.sigma[w]
			delta += s.edgeTerm(sy, sw) - s.edgeTerm(sx, sw)
		}
	}
	if y < N {
		for _, w := range s.g.Neighbors(y) {
			if int(w) == x {
				continue
			}
			sw := s.sigma[w]
			delta += s.edgeTerm(sx, sw) - s.edgeTerm(sy, sw)
		}
	}
	return 2 * delta
}

// metropolis performs count swap proposals.
func (s *state) metropolis(count int, rng *randx.Rand) {
	for t := 0; t < count; t++ {
		x := rng.IntN(s.n)
		y := rng.IntN(s.n)
		if x == y {
			continue
		}
		d := s.swapDelta(x, y)
		if d >= 0 || rng.Float64() < math.Exp(d) {
			s.sigma[x], s.sigma[y] = s.sigma[y], s.sigma[x]
		}
	}
}

// FitCtx estimates the initiator by stochastic gradient ascent over the
// permutation-sampled likelihood under a pipeline Run. The returned
// initiator is canonical. The per-edge likelihood and gradient sums
// (the Metropolis chain itself is sequential) shard over run's worker
// budget with a fixed-shard ordered reduction, so the fit is identical
// for every worker count. The context is checked once per gradient
// iteration, and a "kronfit" stage emits start/done events plus an
// incremental progress fraction per iteration; a cancelled run returns
// run.Err().
func FitCtx(run *pipeline.Run, g *graph.Graph, opts Options) (Result, error) {
	if err := opts.fill(g.NumNodes()); err != nil {
		return Result{}, err
	}
	clamp := func(x float64) float64 {
		return math.Min(maxParam, math.Max(minParam, x))
	}
	done := run.Stage("kronfit")
	init := skg.Initiator{A: clamp(opts.Init.A), B: clamp(opts.Init.B), C: clamp(opts.Init.C)}
	s := newState(g, opts.K, init, opts.Rng)
	s.workers = run.Workers()
	seedPerm := append([]int(nil), s.sigma...)
	for t := 0; t < opts.Iters; t++ {
		if err := run.Err(); err != nil {
			return Result{}, err
		}
		if t > 0 {
			run.Progress("kronfit", float64(t)/float64(opts.Iters))
		}
		copy(s.sigma, seedPerm)
		s.metropolis(warmupSweeps*s.n, opts.Rng)
		var ga, gb, gc float64
		for m := 0; m < permSamples; m++ {
			s.metropolis(s.n/sampleGap, opts.Rng)
			a, b, c := s.grad()
			ga += a
			gb += b
			gc += c
		}
		ga /= permSamples
		gb /= permSamples
		gc /= permSamples
		norm := math.Sqrt(ga*ga + gb*gb + gc*gc)
		if norm < 1e-12 {
			break
		}
		step := step0 / (1 + float64(t)/15)
		s.setTheta(skg.Initiator{
			A: clamp(s.theta.A + step*ga/norm),
			B: clamp(s.theta.B + step*gb/norm),
			C: clamp(s.theta.C + step*gc/norm),
		})
	}
	if err := run.Err(); err != nil {
		return Result{}, err
	}
	res := Result{
		Init:          s.theta.Canonical(),
		K:             opts.K,
		LogLikelihood: s.ll(),
		Iters:         opts.Iters,
	}
	done()
	return res, nil
}

// LogLikelihoodCtx returns the approximate log-likelihood of g under
// the given initiator at power k, using the degree-seeded permutation
// (no MCMC), with the per-edge sum sharded over run's worker budget. It
// is primarily a diagnostic and testing hook.
func LogLikelihoodCtx(run *pipeline.Run, g *graph.Graph, k int, init skg.Initiator, rng *randx.Rand) (float64, error) {
	opts := Options{K: k, Init: init, Rng: rng}
	if err := opts.fill(g.NumNodes()); err != nil {
		return 0, err
	}
	s := newState(g, opts.K, opts.Init, rng)
	if err := run.Err(); err != nil {
		return 0, err
	}
	s.workers = run.Workers()
	return s.ll(), nil
}
