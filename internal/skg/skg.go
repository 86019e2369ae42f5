// Package skg implements the stochastic Kronecker graph (SKG) model of
// Leskovec et al. with a 2×2 initiator matrix, exactly as used by the
// paper: per-edge probabilities from Kronecker powers, the Gleich–Owen
// closed-form expected counts for the four matching features (edges,
// hairpins, tripins, triangles), an exact O(n²·k) sampler, and a fast
// ball-dropping sampler for large graphs.
//
// Following Section 3.2 of the paper, a realized graph is undirected and
// simple: the directed realization is symmetrized by keeping the lower
// triangle, so the undirected edge {u, v} (u ≠ v) is present
// independently with probability P_uv where P = Θ^[k].
//
// Each sampler's shard protocol is written once. The in-memory
// Sample* samplers and the streamed Stream* samplers run the same
// protocol and differ only in where the accepted keys go (the heap or
// an external sort), so for a given seed they yield the same edge set.
package skg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/stats"
)

// Initiator is the symmetric 2×2 SKG initiator matrix
//
//	Θ = [ A  B ]
//	    [ B  C ]
//
// with entries in [0, 1]. The paper follows the convention A ≥ C
// (Section 3.4); Canonical restores it without changing the model.
type Initiator struct {
	A, B, C float64
}

// Validate reports whether all entries lie in [0, 1].
func (in Initiator) Validate() error {
	for _, v := range []float64{in.A, in.B, in.C} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("skg: initiator entry %v outside [0, 1]", v)
		}
	}
	return nil
}

// Canonical returns the initiator with A and C swapped if needed so that
// A >= C. Swapping corresponds to relabelling the two initiator nodes
// and defines the same distribution on (unlabelled) graphs.
func (in Initiator) Canonical() Initiator {
	if in.A < in.C {
		in.A, in.C = in.C, in.A
	}
	return in
}

// EdgeSum returns a + 2b + c, the total initiator mass.
func (in Initiator) EdgeSum() float64 { return in.A + 2*in.B + in.C }

// String formats the initiator like the paper's tables.
func (in Initiator) String() string {
	return fmt.Sprintf("[%.4f %.4f; %.4f %.4f]", in.A, in.B, in.B, in.C)
}

// Dense returns the 2×2 matrix as a dense slice.
func (in Initiator) Dense() [][]float64 {
	return [][]float64{{in.A, in.B}, {in.B, in.C}}
}

// Model is an SKG on 2^K nodes defined by Θ^[K].
type Model struct {
	Init Initiator
	K    int
}

// NewModel validates the parameters and returns the model. K must be in
// [1, 30] (node ids are ints; 2^30 nodes is far beyond what the
// estimators are meant for).
func NewModel(init Initiator, k int) (Model, error) {
	if err := init.Validate(); err != nil {
		return Model{}, err
	}
	if k < 1 || k > 30 {
		return Model{}, fmt.Errorf("skg: K = %d outside [1, 30]", k)
	}
	return Model{Init: init, K: k}, nil
}

// NumNodes returns 2^K.
func (m Model) NumNodes() int { return 1 << m.K }

// QuadrantCounts decomposes the pair (u, v) into the per-level initiator
// cells it traverses: na cells (0,0), nb cells (0,1)/(1,0) and nc cells
// (1,1), with na+nb+nc = K.
func (m Model) QuadrantCounts(u, v int) (na, nb, nc int) {
	nc = bits.OnesCount64(uint64(u & v))
	na = m.K - bits.OnesCount64(uint64((u|v)&(1<<m.K-1)))
	nb = m.K - na - nc
	return na, nb, nc
}

// EdgeProb returns P_uv = Θ^[K]_{uv} = A^na · B^nb · C^nc.
func (m Model) EdgeProb(u, v int) float64 {
	na, nb, nc := m.QuadrantCounts(u, v)
	return math.Pow(m.Init.A, float64(na)) *
		math.Pow(m.Init.B, float64(nb)) *
		math.Pow(m.Init.C, float64(nc))
}

// ProbMatrix materializes the full n×n probability matrix P = Θ^[K].
// It panics for K > 12 (16M entries) to guard against accidental use on
// large models; it exists for tests, spectra and brute-force validation.
func (m Model) ProbMatrix() [][]float64 {
	if m.K > 12 {
		panic(fmt.Sprintf("skg: ProbMatrix on K=%d is too large", m.K))
	}
	n := m.NumNodes()
	tbl := m.powTables()
	out := make([][]float64, n)
	for u := 0; u < n; u++ {
		row := make([]float64, n)
		for v := 0; v < n; v++ {
			na, nb, nc := m.QuadrantCounts(u, v)
			row[v] = tbl.a[na] * tbl.b[nb] * tbl.c[nc]
		}
		out[u] = row
	}
	return out
}

// powTable caches integer powers of the initiator entries up to K.
type powTable struct{ a, b, c []float64 }

func (m Model) powTables() powTable {
	pow := func(x float64) []float64 {
		t := make([]float64, m.K+1)
		t[0] = 1
		for i := 1; i <= m.K; i++ {
			t[i] = t[i-1] * x
		}
		return t
	}
	return powTable{a: pow(m.Init.A), b: pow(m.Init.B), c: pow(m.Init.C)}
}

// ExpectedFeatures returns the Gleich–Owen closed-form expectations of
// the four matching statistics over undirected realizations of the
// model (Equation 1 of the paper).
//
// Note on E[T] (tripins): the paper's displayed equation appears to
// carry a typesetting/transcription error in two coefficients (5 and 4
// where the derivation gives 3 and 6; the variants coincide exactly when
// a = c, which the paper's symmetric examples satisfy). This
// implementation uses the form derived from elementary symmetric
// polynomials over the rows of P, which package tests validate against
// direct summation over the explicit probability matrix.
func (m Model) ExpectedFeatures() stats.Features {
	a, b, c := m.Init.A, m.Init.B, m.Init.C
	k := m.K

	// Per-level aggregates. Rows of Θ are (a+b) and (b+c); the diagonal
	// cells are a and c.
	s1sq := (a+b)*(a+b) + (b+c)*(b+c)             // Σ rowsum²
	s1d := a*(a+b) + c*(b+c)                      // Σ rowsum·diag
	sumP2 := a*a + 2*b*b + c*c                    // Σ cell²
	diag2 := a*a + c*c                            // Σ diag²
	s1cu := (a+b)*(a+b)*(a+b) + (b+c)*(b+c)*(b+c) // Σ rowsum³
	s1s2 := (a+b)*(a*a+b*b) + (b+c)*(b*b+c*c)     // Σ rowsum·rowsq
	sumP3 := a*a*a + 2*b*b*b + c*c*c              // Σ cell³
	s1sqd := a*(a+b)*(a+b) + c*(b+c)*(b+c)        // Σ rowsum²·diag
	s1d2 := a*a*(a+b) + c*c*(b+c)                 // Σ rowsum·diag²
	ds2 := a*(a*a+b*b) + c*(b*b+c*c)              // Σ diag·rowsq
	diag3 := a*a*a + c*c*c                        // Σ diag³
	triPaths := a*a*a + 3*b*b*(a+c) + c*c*c       // Σ closed 3-walks over cells

	// Each k-th power is taken once; ds2 and diag3 enter both Δ and T.
	pds2, pdiag3 := powK(ds2, k), powK(diag3, k)
	e := 0.5 * (powK(a+2*b+c, k) - powK(a+c, k))
	h := 0.5 * (powK(s1sq, k) - 2*powK(s1d, k) - powK(sumP2, k) + 2*powK(diag2, k))
	delta := (powK(triPaths, k) - 3*pds2 + 2*pdiag3) / 6
	t := (powK(s1cu, k) - 3*powK(s1s2, k) + 2*powK(sumP3, k) -
		3*powK(s1sqd, k) + 6*powK(s1d2, k) + 3*pds2 - 6*pdiag3) / 6

	return stats.Features{E: e, H: h, T: t, Delta: delta}
}

// powK returns math.Pow(x, k) bit for bit. For 1 ≤ k ≤ 30 and
// 2^-30 ≤ x ≤ 2^30 it multiplies out repeated squares of x, which is
// the loop math.Pow runs on x's mantissa: rescaling by powers of two is
// exact, and in that range no product (the last, unused square is at
// most x^32) is subnormal or overflows, so every rounding is the same.
// Other arguments go to math.Pow.
func powK(x float64, k int) float64 {
	if k < 1 || k > 30 || !(x >= 0x1p-30 && x <= 0x1p30) {
		return math.Pow(x, float64(k))
	}
	r := 1.0
	for ; k != 0; k >>= 1 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
	}
	return r
}

// exactMaxK is the largest K that SampleCtx and StreamCtx draw with
// the exact sampler; larger models are ball-dropped.
const exactMaxK = 13

// SampleCtx draws a graph using the exact sampler for K <= 13 and
// ball dropping otherwise. This matches how the experiment harness
// treats "original" graphs (exact) versus bulk synthetic realizations
// (fast). See SampleExactCtx and SampleBallDropNCtx for the
// cancellation contract.
func (m Model) SampleCtx(run *pipeline.Run, rng *randx.Rand) (*graph.Graph, error) {
	if m.K <= exactMaxK {
		return m.SampleExactCtx(run, rng)
	}
	return m.SampleBallDropCtx(run, rng)
}

// SampleExactCtx draws an undirected simple graph from the model by
// flipping an independent coin for every node pair {u, v}, u > v, with
// bias P_uv. It costs O(n²·K) time and is exact; prefer
// SampleBallDropCtx beyond K ≈ 13.
//
// The pair loop is split into a fixed number of pair-balanced row
// blocks, each driven by its own random stream derived serially from
// rng, and the blocks fan out over run's worker budget, so for a given
// seed the sampled edge set is identical for every worker count. The
// context is checked between blocks, a "sample-exact" stage event pair
// is emitted, and a cancelled run returns run.Err().
func (m Model) SampleExactCtx(run *pipeline.Run, rng *randx.Rand) (*graph.Graph, error) {
	done := run.Stage("sample-exact")
	sink := newMemSink()
	if err := m.sampleExact(run, rng, sink); err != nil {
		return nil, err
	}
	g := sink.build(run, m.NumNodes(), nil)
	done()
	return g, nil
}

// SampleBallDropCtx draws an undirected simple graph with approximately
// the model's expected edge count using Kronecker ball dropping (the
// standard fast generator, as in SNAP's krongen): each drop descends K
// levels choosing an initiator quadrant with probability proportional
// to its entry; self-loops and duplicate pairs are re-dropped. The
// per-pair inclusion probabilities are proportional to P_uv, so the
// realized graph approximates the SKG distribution conditioned on its
// edge count; the paper's experiments depend only on this regime. See
// SampleBallDropNCtx for the sharding and cancellation contract.
func (m Model) SampleBallDropCtx(run *pipeline.Run, rng *randx.Rand) (*graph.Graph, error) {
	return m.SampleBallDropNCtx(run, rng, m.expectedEdges())
}

// SampleBallDropNCtx is SampleBallDropCtx with an explicit target edge
// count. Ball dropping is sharded over per-shard edge quotas on run's
// worker budget. The target is split across a fixed number of shards,
// each dropping its quota with a private random stream and
// shard-local sort-and-dedup duplicate elimination (dropUnique); the
// shards' sorted keys are then merged with a global radix-sort dedup
// pass, and a final serial top-up stream replaces the few edges lost
// to cross-shard collisions. The shard count, every stream derivation,
// the per-stream drop order, and the top-up semantics depend only on
// the model and target, so for a given seed the sampled graph is
// identical for every worker count — and identical to what the
// historical map-based dedup produced.
//
// The per-shard quota fan-out and the dedup sort check the context
// between shards and passes, the serial top-up checks it between
// rounds, and a "sample-ball-drop" stage event pair is emitted; a
// cancelled run returns run.Err().
func (m Model) SampleBallDropNCtx(run *pipeline.Run, rng *randx.Rand, target int) (*graph.Graph, error) {
	done := run.Stage("sample-ball-drop")
	sink := newMemSink()
	extra, err := m.ballDrop(run, rng, target, sink)
	if err != nil {
		return nil, err
	}
	g := sink.build(run, m.NumNodes(), extra)
	done()
	return g, nil
}

// expectedEdges is the ball-drop target of SampleBallDropCtx and
// StreamBallDropCtx: the model's expected edge count, rounded.
func (m Model) expectedEdges() int { return int(math.Round(m.ExpectedFeatures().E)) }

// keySink is where a sampling protocol (sampleExact, ballDrop) puts
// its accepted keys, and the only thing the in-memory and streamed
// samplers do differently: memSink keeps the keys on the heap, while
// sorterSink (stream.go) spills them through an external sort. Keys are
// packed undirected edges, int64(u)<<32 | v with u < v.
type keySink interface {
	// writer returns the writer of shard s, which expects about hint
	// keys; each concurrent shard takes its own.
	writer(s, hint int) keyWriter
	// seal merges every closed writer's keys into one duplicate-free
	// set and returns its size and a membership probe.
	seal(run *pipeline.Run) (size int, contains func(int64) (bool, error), err error)
}

// keyWriter is one shard's writer; *extsort.Writer is one.
type keyWriter interface {
	Add(key int64) error
	// AddSorted adds a sorted, duplicate-free slice.
	AddSorted(keys []int64) error
	Close() error
}

// sampleExact is the exact sampler's protocol: pair blocks, one random
// stream per block, and a coin per pair, with each block's accepted
// keys written to its own writer before the sink is sealed.
func (m Model) sampleExact(run *pipeline.Run, rng *randx.Rand, sink keySink) error {
	n := m.NumNodes()
	tbl := m.powTables()
	mask := 1<<m.K - 1
	blocks := parallel.PairBlocks(n, parallel.DefaultShards)
	rngs := parallel.Streams(rng, len(blocks))
	// Each block's hint is its expected edge yield plus slack, so an
	// in-memory shard appends without regrowth.
	density := 2 * m.ExpectedFeatures().E / (float64(n) * float64(n-1))
	pairsBelow := func(u int) float64 { return float64(u) * float64(u-1) / 2 }
	err := parallel.Run(run.Context(), run.Workers(), len(blocks), func(s int) error {
		hint := int(density*(pairsBelow(blocks[s].Hi)-pairsBelow(blocks[s].Lo))*1.2) + 16
		r, w := rngs[s], sink.writer(s, hint)
		for u := blocks[s].Lo; u < blocks[s].Hi; u++ {
			for v := 0; v < u; v++ {
				nc := bits.OnesCount64(uint64(u & v))
				na := m.K - bits.OnesCount64(uint64((u|v)&mask))
				p := tbl.a[na] * tbl.b[m.K-na-nc] * tbl.c[nc]
				if r.Float64() < p {
					if err := w.Add(int64(v)<<32 | int64(u)); err != nil {
						return errors.Join(err, w.Close())
					}
				}
			}
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	_, _, err = sink.seal(run)
	return err
}

// ballDrop is the ball-drop protocol. The target (capped at the pair
// count) is split into per-shard quotas, each shard drops its quota
// with its own random stream and shard-local dedup and hands its
// sorted keys to its writer, and the sealed sink is the cross-shard
// dedup. The edges lost to cross-shard collisions are then re-dropped
// from a final top-up stream, excluding the sealed set, and returned
// as a sorted slice disjoint from it. A zero-mass initiator or a
// target <= 0 seals an empty sink without touching rng.
func (m Model) ballDrop(run *pipeline.Run, rng *randx.Rand, target int, sink keySink) (extra []int64, err error) {
	n := m.NumNodes()
	target = min(target, n*(n-1)/2)
	sum := m.Init.EdgeSum()
	if sum == 0 || target <= 0 {
		if err := run.Err(); err != nil {
			return nil, err
		}
		_, _, err := sink.seal(run)
		return nil, err
	}
	t := dropThresholds(m.Init.A/sum, m.Init.B/sum)
	shards := min(parallel.DefaultShards, target)
	ctx := run.Context()
	rngs := parallel.Streams(rng, shards+1) // last stream is the top-up
	// Attempts are capped at 200·quota + 1000 per shard and 200·target +
	// 1000 for the top-up: dense targets on tiny graphs may need many
	// re-drops, and the caps are far beyond what the sparse regimes of
	// the paper require but keep the routine total.
	err = parallel.Run(ctx, run.Workers(), shards, func(s int) error {
		q := target / shards
		if s < target%shards {
			q++
		}
		keys, err := m.dropUnique(ctx, rngs[s], t, q, 200*q+1000, nil)
		if err != nil {
			return err
		}
		w := sink.writer(s, 0)
		return errors.Join(w.AddSorted(keys), w.Close())
	})
	if err != nil {
		return nil, err
	}
	placed, contains, err := sink.seal(run)
	if err != nil || placed >= target {
		return nil, err
	}
	return m.dropUnique(ctx, rngs[shards], t, target-placed, 200*target+1000, contains)
}

// memSink keeps the shards' keys on the heap, one slot per shard (no
// protocol runs more than parallel.DefaultShards shards). Sealing
// concatenates, radix-sorts, and compacts the slots; the probe is a
// binary search.
type memSink struct {
	parts [][]int64
	keys  []int64 // the sealed set
}

func newMemSink() *memSink { return &memSink{parts: make([][]int64, parallel.DefaultShards)} }

func (ms *memSink) writer(s, hint int) keyWriter {
	ms.parts[s] = make([]int64, 0, hint)
	return (*memShard)(&ms.parts[s])
}

func (ms *memSink) seal(run *pipeline.Run) (int, func(int64) (bool, error), error) {
	all := slices.Concat(ms.parts...)
	ms.parts = nil
	if _, err := parallel.SortInt64(run.Context(), run.Workers(), all, nil); err != nil {
		return 0, nil, err
	}
	ms.keys = slices.Compact(all)
	return len(ms.keys), func(key int64) (bool, error) {
		_, ok := slices.BinarySearch(ms.keys, key)
		return ok, nil
	}, nil
}

// build returns the graph on n nodes holding the sealed keys plus the
// sorted top-up keys extra, which are disjoint from them.
func (ms *memSink) build(run *pipeline.Run, n int, extra []int64) *graph.Graph {
	keys := parallel.MergeSortedInt64(ms.keys, extra)
	b := graph.NewBuilderCap(n, len(keys))
	b.AddPackedEdges(keys)
	return b.BuildWorkers(run.Workers())
}

// memShard is one shard's slot in a memSink.
type memShard []int64

func (w *memShard) Add(key int64) error {
	*w = append(*w, key)
	return nil
}

// AddSorted takes ownership of keys when the slot is empty instead of
// copying them.
func (w *memShard) AddSorted(keys []int64) error {
	if len(*w) == 0 {
		*w = keys
		return nil
	}
	*w = append(*w, keys...)
	return nil
}

func (w *memShard) Close() error { return nil }

// dropThresholds returns the ball-drop descent's draw thresholds for
// the normalized A and B entries pa and pb: T = ⌈t·2^53⌉ for the
// quadrant boundaries t = pa, pa+pb and pa+2pb.
func dropThresholds(pa, pb float64) [3]uint64 {
	ceil := func(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }
	return [3]uint64{ceil(pa), ceil(pa + pb), ceil(pa + 2*pb)}
}

// dropPair performs one ball drop: a K-level descent choosing an
// initiator quadrant per level with probability proportional to its
// entry, given the thresholds t of dropThresholds. It consumes exactly
// K draws from r.
//
// The descent is exact integer arithmetic on the draws. A uniform draw
// rv = r.Float64() is k/2^53 for the low 53 bits k of r.Uint64(), and
// t·2^53 is exact, so rv < t holds exactly when k < ⌈t·2^53⌉ = T. The
// bit b = (T−1−k)>>63, in wrapping uint64 arithmetic, is therefore
// [rv ≥ t] (also for T = 0, where T−1 wraps). The thresholds are
// ordered, so b1 ≥ b2 ≥ b3, and the quadrant of the float rule
// (rv < pa → (0,0); < pa+pb → (0,1); < pa+2pb → (1,0); else (1,1)) is
// x = b2, y = b1⊕b2⊕b3, with no branch to mispredict. Every drop takes
// the same draws and lands on the same (u, v) as that rule.
func (m Model) dropPair(r *randx.Rand, t [3]uint64) (u, v int) {
	t1, t2, t3 := t[0]-1, t[1]-1, t[2]-1
	for level := 0; level < m.K; level++ {
		k := r.Uint64() & (1<<53 - 1)
		b1, b2, b3 := (t1-k)>>63, (t2-k)>>63, (t3-k)>>63
		u = u<<1 | int(b2)
		v = v<<1 | int(b1^b2^b3)
	}
	return u, v
}

// dropUnique draws ball drops from r until it has accepted `need` keys
// distinct from each other and from the set that excluded probes (nil
// for none), or until maxAttempts drops have been made, and returns the
// accepted keys as a sorted slice. Duplicate elimination is map-free:
// candidates are gathered in rounds sized to the remaining need, each
// round is sorted and deduplicated (parallel.SortInt64 on the packed
// keys) and merged into the sorted accepted set, and per-drop
// membership tests are binary searches against that set.
//
// The rounds replay the historical one-map-lookup-per-drop generator
// exactly: every drop consumes K draws from r; self-loops and keys
// already accepted (or excluded) are rejected by the same rules; a
// candidate that duplicates an earlier candidate of its own round
// merely ends the round early, after which the next round's membership
// filter rejects it — so acceptance reaches `need` at precisely the
// drop where the serial generator accepted its last key. The accepted
// key set and the final state of r are therefore identical to the
// map-based implementation for every seed.
//
// It stops with ctx.Err() once ctx is done, and a probe error aborts
// the draw too (the caller discards the partial state along with the
// rng).
func (m Model) dropUnique(ctx context.Context, r *randx.Rand, t [3]uint64, need, maxAttempts int, excluded func(int64) (bool, error)) ([]int64, error) {
	accepted := make([]int64, 0, need)
	// No round gathers more than need candidates, so cand never regrows.
	cand := make([]int64, 0, need)
	var scratch []int64
	attempts := 0
	for len(accepted) < need && attempts < maxAttempts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		want := need - len(accepted)
		cand = cand[:0]
		for len(cand) < want && attempts < maxAttempts {
			u, v := m.dropPair(r, t)
			attempts++
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := int64(u)<<32 | int64(v)
			if _, dup := slices.BinarySearch(accepted, key); dup {
				continue
			}
			if excluded != nil {
				dup, err := excluded(key)
				if err != nil {
					return nil, fmt.Errorf("skg: probing exclude set: %w", err)
				}
				if dup {
					continue
				}
			}
			cand = append(cand, key)
		}
		scratch, _ = parallel.SortInt64(nil, 1, cand, scratch) // a nil context cannot fail
		cand = slices.Compact(cand)
		accepted = parallel.MergeSortedInt64(accepted, cand)
	}
	return accepted, nil
}

// KroneckerPower returns the dense k-th Kronecker power of a dense
// matrix; it is exponential in k and intended for tests (Definition 3.3).
func KroneckerPower(m [][]float64, k int) [][]float64 {
	out := [][]float64{{1}}
	for i := 0; i < k; i++ {
		out = kroneckerProduct(out, m)
	}
	return out
}

func kroneckerProduct(a, b [][]float64) [][]float64 {
	ra, rb := len(a), len(b)
	ca, cb := 0, 0
	if ra > 0 {
		ca = len(a[0])
	}
	if rb > 0 {
		cb = len(b[0])
	}
	out := make([][]float64, ra*rb)
	for i := range out {
		out[i] = make([]float64, ca*cb)
	}
	for i := 0; i < ra; i++ {
		for j := 0; j < ca; j++ {
			for p := 0; p < rb; p++ {
				for q := 0; q < cb; q++ {
					out[i*rb+p][j*cb+q] = a[i][j] * b[p][q]
				}
			}
		}
	}
	return out
}
