package skg

import (
	"slices"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// refDropPair is the historical float-switch ball-drop descent, kept as
// the oracle for dropPair's integer kernel: per level one uniform draw
// picks the initiator quadrant whose cumulative normalized entry (pa,
// pa+pb, pa+2pb, 1) it first falls below.
func (m Model) refDropPair(r *randx.Rand, pa, pb float64) (u, v int) {
	for level := 0; level < m.K; level++ {
		x, y := 1, 1
		switch rv := r.Float64(); {
		case rv < pa:
			x, y = 0, 0
		case rv < pa+pb:
			x, y = 0, 1
		case rv < pa+2*pb:
			x, y = 1, 0
		}
		u = u<<1 | x
		v = v<<1 | y
	}
	return u, v
}

// sampleBallDropNRef is the historical map-based ball dropper, kept
// verbatim as the oracle for the documented contract that the map-free
// sort-and-dedup rewrite (dropUnique) consumes the per-shard random
// streams identically — same drops, same rejections, same top-up — and
// therefore produces bit-identical graphs for every seed.
func (m Model) sampleBallDropNRef(rng *randx.Rand, target, workers int) *graph.Graph {
	n := m.NumNodes()
	maxPairs := n * (n - 1) / 2
	if target > maxPairs {
		target = maxPairs
	}
	sum := m.Init.EdgeSum()
	if sum == 0 || target <= 0 {
		return graph.Empty(n)
	}
	pa := m.Init.A / sum
	pb := m.Init.B / sum

	shards := parallel.DefaultShards
	if shards > target {
		shards = target
	}
	rngs := parallel.Streams(rng, shards+1)
	quota := func(s int) int {
		q := target / shards
		if s < target%shards {
			q++
		}
		return q
	}
	parts := make([][]int64, shards)
	parallel.Run(nil, parallel.Normalize(workers), shards, func(s int) {
		r := rngs[s]
		q := quota(s)
		local := make(map[int64]struct{}, 2*q)
		keys := make([]int64, 0, q)
		for attempts := 0; len(keys) < q && attempts < 200*q+1000; attempts++ {
			u, v := m.refDropPair(r, pa, pb)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := int64(u)<<32 | int64(v)
			if _, dup := local[key]; dup {
				continue
			}
			local[key] = struct{}{}
			keys = append(keys, key)
		}
		parts[s] = keys
	})

	seen := make(map[int64]struct{}, 2*target)
	b := graph.NewBuilder(n)
	placed := 0
	for _, keys := range parts {
		for _, key := range keys {
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			b.AddEdge(int(key>>32), int(key&0xffffffff))
			placed++
		}
	}
	top := rngs[shards]
	for attempts := 0; placed < target && attempts < 200*target+1000; attempts++ {
		u, v := m.refDropPair(top, pa, pb)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
		placed++
	}
	return b.Build()
}

// TestSampleBallDropMatchesMapReference pins the map-free rewrite to
// the historical map-based generator across sparse, dense,
// target-saturating, and degenerate regimes, several seeds, and worker
// counts. The subtle property under test is RNG-consumption
// equivalence: a duplicate inside one of dropUnique's rounds must
// merely end the round early (the next round's membership filter
// rejects it), so acceptance lands on exactly the drops the one-lookup-
// per-attempt reference accepted.
func TestSampleBallDropMatchesMapReference(t *testing.T) {
	type tc struct {
		init    Initiator
		k       int
		targets []int
	}
	cases := []tc{
		// Sparse paper-like regime.
		{Initiator{A: 0.99, B: 0.45, C: 0.25}, 11, []int{1, 63, 64, 65, 2000, 8000}},
		// Dense small graphs: heavy re-drop and cap pressure.
		{Initiator{A: 0.9, B: 0.7, C: 0.6}, 3, []int{5, 14, 28, 100}},
		{Initiator{A: 0.9, B: 0.7, C: 0.6}, 5, []int{200, 496, 1000}},
		// Skewed initiator: many self-loop rejections.
		{Initiator{A: 1, B: 0.05, C: 0.9}, 6, []int{100, 500}},
	}
	for _, c := range cases {
		m := mustModel(t, c.init.A, c.init.B, c.init.C, c.k)
		for _, target := range c.targets {
			for seed := uint64(1); seed <= 3; seed++ {
				want := m.sampleBallDropNRef(randx.New(seed), target, 1)
				for _, workers := range []int{1, 4} {
					got := must(m.SampleBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(seed), target))
					if !got.Equal(want) {
						t.Fatalf("init=%v k=%d target=%d seed=%d workers=%d: graph differs from map-based reference",
							c.init, c.k, target, seed, workers)
					}
				}
			}
		}
	}
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestDropThresholdsExact pins dropPair's integer kernel to the float
// rule of refDropPair. For each threshold T = ⌈t·2^53⌉, k < T must agree
// with float64(k)/2^53 < t at and around T and at both ends of the
// draw range, for the benchmark initiator, degenerate ones whose
// thresholds coincide or sit at 0, and random ones. The two descents
// must then land on the same (u, v) from equal streams and leave the
// streams in the same state.
func TestDropThresholdsExact(t *testing.T) {
	const top = 1<<53 - 1
	named := []Initiator{
		{A: 0.99, B: 0.45, C: 0.25}, // the benchmark's
		{A: 0.9, B: 0, C: 0.5},      // B = 0: T1 = T2
		{A: 0.8, B: 0.3, C: 0},      // C = 0: T3 = 2^53
		{A: 0, B: 0.4, C: 0.7},      // A = 0: T1 = 0
		{A: 0.5, B: 0.5, C: 0.5},    // thresholds on multiples of 2^51
	}
	inits := slices.Clone(named)
	pick := randx.New(18)
	for range 1000 {
		inits = append(inits, Initiator{A: pick.Float64(), B: pick.Float64(), C: pick.Float64()})
	}
	for _, in := range inits {
		sum := in.EdgeSum()
		pa, pb := in.A/sum, in.B/sum
		th := dropThresholds(pa, pb)
		for i, bound := range []float64{pa, pa + pb, pa + 2*pb} {
			T := int64(th[i])
			for _, k := range []int64{0, T - 2, T - 1, T, T + 1, top} {
				k = min(max(k, 0), top)
				if got, want := k < T, float64(k)/(1<<53) < bound; got != want {
					t.Fatalf("init %v threshold %d: k=%d < T=%d is %v, float rule says %v", in, i, k, T, got, want)
				}
			}
		}
	}
	for _, in := range named {
		sum := in.EdgeSum()
		pa, pb := in.A/sum, in.B/sum
		th := dropThresholds(pa, pb)
		for _, k := range []int{1, 14, 20, 30} {
			m := Model{Init: in, K: k}
			r, ref := randx.New(uint64(k)), randx.New(uint64(k))
			for i := range 100_000 {
				u, v := m.dropPair(r, th)
				wu, wv := m.refDropPair(ref, pa, pb)
				if u != wu || v != wv {
					t.Fatalf("init %v K=%d drop %d: dropPair (%d, %d), reference (%d, %d)", in, k, i, u, v, wu, wv)
				}
			}
			if r.Uint64() != ref.Uint64() {
				t.Fatalf("init %v K=%d: streams diverged after the drops", in, k)
			}
		}
	}
}
