package skg

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dpkron/internal/extsort"
	"dpkron/internal/parallel"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// EdgeStream is a sampled graph held as spill files instead of memory:
// the bulk of the edge set lives in a consolidated external-sort run,
// plus a small in-memory top-up slice for ball-drop collision
// replacement. It satisfies dataset.EdgeSource structurally (the
// interface is matched by shape, not import), so a stream can be fed
// straight into Store.PutStream without either package knowing the
// other.
//
// Edges may be called repeatedly — each call re-reads the run — which
// is what lets the store make its two encoding passes over one sample.
type EdgeStream struct {
	n     int
	run   *extsort.Run
	extra []int64
}

// NumNodes is the node count of the sampled graph.
func (es *EdgeStream) NumNodes() int { return es.n }

// NumEdges is the exact edge count of the sampled graph (the top-up
// keys are disjoint from the run by construction).
func (es *EdgeStream) NumEdges() int64 { return es.run.Count() + int64(len(es.extra)) }

// Edges returns a fresh ascending iterator over the packed edge keys.
func (es *EdgeStream) Edges() (*extsort.Iterator, error) { return es.run.IterWith(es.extra) }

// Close releases the stream's probe handle on the run file. The run
// file itself belongs to the sorter the stream was sampled into; it is
// deleted with the sorter's directory.
func (es *EdgeStream) Close() error { return es.run.Close() }

// StreamCtx is SampleCtx with the sampled edge set spilled into sorter
// instead of materialized: the exact sampler for K <= 13, ball
// dropping otherwise. For a given seed the streamed edge set is
// bit-identical to the graph SampleCtx builds — every random stream,
// drop order, and top-up decision is replayed exactly; only the
// storage of accepted keys differs.
func (m Model) StreamCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	if m.K <= 13 {
		return m.StreamExactCtx(run, rng, sorter)
	}
	return m.StreamBallDropCtx(run, rng, sorter)
}

// StreamBallDropCtx is StreamBallDropNCtx at the model's expected edge
// count (the SampleBallDropCtx target).
func (m Model) StreamBallDropCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	target := int(math.Round(m.ExpectedFeatures().E))
	return m.StreamBallDropNCtx(run, rng, target, sorter)
}

// StreamExactCtx is SampleExactCtx streaming into sorter: each pair
// block spills its accepted keys as it goes (the per-writer chunk
// bounds the block's residency), and the blocks' runs consolidate into
// one sorted edge set. Pair blocks, random streams, and coin flips are
// identical to SampleExactCtx, so the streamed edge set matches its
// graph bit for bit.
func (m Model) StreamExactCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	done := run.Stage("sample-exact")
	n := m.NumNodes()
	tbl := m.powTables()
	mask := 1<<m.K - 1
	blocks := parallel.PairBlocks(n, parallel.DefaultShards)
	rngs := parallel.Streams(rng, len(blocks))
	spillErrs := make([]error, len(blocks))
	err := parallel.Run(run.Context(), run.Workers(), len(blocks), func(s int) {
		r := rngs[s]
		w := sorter.Writer()
		defer w.Close()
		for u := blocks[s].Lo; u < blocks[s].Hi; u++ {
			for v := 0; v < u; v++ {
				nc := bits.OnesCount64(uint64(u & v))
				na := m.K - bits.OnesCount64(uint64((u|v)&mask))
				p := tbl.a[na] * tbl.b[m.K-na-nc] * tbl.c[nc]
				if r.Float64() < p {
					if err := w.Add(int64(v)<<32 | int64(u)); err != nil {
						spillErrs[s] = err
						return
					}
				}
			}
		}
		spillErrs[s] = w.Close()
	})
	if err != nil {
		return nil, err
	}
	for _, serr := range spillErrs {
		if serr != nil {
			return nil, serr
		}
	}
	edges, err := sorter.Consolidate()
	if err != nil {
		return nil, err
	}
	done()
	return &EdgeStream{n: n, run: edges}, nil
}

// StreamBallDropNCtx is SampleBallDropNCtx streaming into sorter: each
// shard's sorted accepted keys are spilled as a run the moment the
// shard finishes (peak residency is one shard quota per in-flight
// worker, not the whole target), the cross-shard dedup happens in the
// consolidation merge, and the top-up's exclude set is probed by
// binary search over the consolidated run file instead of a heap
// slice. Shard count, stream derivations, drop order, and top-up
// semantics replay SampleBallDropNCtx exactly, so for a given seed the
// streamed edge set is identical to its graph for every worker count
// and spill chunk size.
func (m Model) StreamBallDropNCtx(run *pipeline.Run, rng *randx.Rand, target int, sorter *extsort.Sorter) (*EdgeStream, error) {
	done := run.Stage("sample-ball-drop")
	n := m.NumNodes()
	maxPairs := n * (n - 1) / 2
	if target > maxPairs {
		target = maxPairs
	}
	sum := m.Init.EdgeSum()
	if sum == 0 || target <= 0 {
		if err := run.Err(); err != nil {
			return nil, err
		}
		empty, err := sorter.Consolidate()
		if err != nil {
			return nil, err
		}
		done()
		return &EdgeStream{n: n, run: empty}, nil
	}
	pa := m.Init.A / sum
	pb := m.Init.B / sum

	shards := parallel.DefaultShards
	if shards > target {
		shards = target
	}
	ctx := run.Context()
	rngs := parallel.Streams(rng, shards+1) // last stream is the top-up
	quota := func(s int) int {
		q := target / shards
		if s < target%shards {
			q++
		}
		return q
	}
	spillErrs := make([]error, shards)
	if err := parallel.Run(ctx, run.Workers(), shards, func(s int) {
		q := quota(s)
		keys := m.dropUnique(ctx, rngs[s], pa, pb, q, 200*q+1000, nil)
		w := sorter.Writer()
		defer w.Close()
		if err := w.AddSorted(keys); err != nil {
			spillErrs[s] = err
			return
		}
		spillErrs[s] = w.Close()
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, serr := range spillErrs {
		if serr != nil {
			return nil, serr
		}
	}

	// Consolidation is the concat-sort-dedup of the in-memory sampler:
	// merging the shards' sorted runs with duplicate suppression yields
	// the same unique set, counted on the way through. Then top up the
	// edges lost to cross-shard collisions from the dedicated final
	// stream, excluding everything already placed — membership now a
	// binary search over the run file.
	edges, err := sorter.Consolidate()
	if err != nil {
		return nil, err
	}
	placed := int(edges.Count())
	var extra []int64
	if placed < target {
		extra, err = m.dropUniqueFn(ctx, rngs[shards], pa, pb, target-placed, 200*target+1000, edges.Contains)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	done()
	return &EdgeStream{n: n, run: edges, extra: extra}, nil
}

// dropUniqueFn is dropUnique with the exclude set abstracted to a
// membership probe, so the streaming top-up can exclude against an
// on-disk run. A probe error aborts the draw immediately (the caller
// discards the partial state along with the rng).
func (m Model) dropUniqueFn(ctx context.Context, r *randx.Rand, pa, pb float64, need, maxAttempts int, excluded func(int64) (bool, error)) ([]int64, error) {
	accepted := make([]int64, 0, need)
	var cand, scratch []int64
	attempts := 0
	for len(accepted) < need && attempts < maxAttempts {
		if ctx != nil && ctx.Err() != nil {
			return accepted, nil
		}
		want := need - len(accepted)
		cand = cand[:0]
		for len(cand) < want && attempts < maxAttempts {
			u, v := m.dropPair(r, pa, pb)
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
