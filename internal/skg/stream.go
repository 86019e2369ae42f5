package skg

import (
	"dpkron/internal/extsort"
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
// dropping otherwise. The streamed samplers run the same protocol as
// the in-memory ones against a sink that spills the accepted keys, so
// for a given seed the streamed edge set is the graph SampleCtx builds
// by construction; only the storage of accepted keys differs.
func (m Model) StreamCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	if m.K <= exactMaxK {
		return m.StreamExactCtx(run, rng, sorter)
	}
	return m.StreamBallDropCtx(run, rng, sorter)
}

// StreamBallDropCtx is StreamBallDropNCtx at the model's expected edge
// count (the SampleBallDropCtx target).
func (m Model) StreamBallDropCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	return m.StreamBallDropNCtx(run, rng, m.expectedEdges(), sorter)
}

// StreamExactCtx is SampleExactCtx streaming into sorter: the same
// protocol, with each pair block spilling its accepted keys as it goes
// (the per-writer chunk bounds the block's residency) and the blocks'
// runs consolidating into one sorted edge set.
func (m Model) StreamExactCtx(run *pipeline.Run, rng *randx.Rand, sorter *extsort.Sorter) (*EdgeStream, error) {
	done := run.Stage("sample-exact")
	sink := &sorterSink{sorter: sorter}
	if err := m.sampleExact(run, rng, sink); err != nil {
		return nil, err
	}
	done()
	return &EdgeStream{n: m.NumNodes(), run: sink.edges}, nil
}

// StreamBallDropNCtx is SampleBallDropNCtx streaming into sorter: the
// same protocol, with each shard's sorted keys spilled as a run the
// moment the shard finishes (peak residency is one shard quota per
// in-flight worker, not the whole target), the cross-shard dedup done
// by the consolidation merge, and the top-up's exclude set probed by
// binary search over the consolidated run file instead of a heap
// slice. For a given seed the streamed edge set is SampleBallDropNCtx's
// graph for every worker count and spill chunk size.
func (m Model) StreamBallDropNCtx(run *pipeline.Run, rng *randx.Rand, target int, sorter *extsort.Sorter) (*EdgeStream, error) {
	done := run.Stage("sample-ball-drop")
	sink := &sorterSink{sorter: sorter}
	extra, err := m.ballDrop(run, rng, target, sink)
	if err != nil {
		return nil, err
	}
	done()
	return &EdgeStream{n: m.NumNodes(), run: sink.edges, extra: extra}, nil
}

// sorterSink is the keySink of the streamed samplers: shards write
// through their own extsort.Writer, sealing consolidates the spilled
// runs, and the probe binary-searches the consolidated run file.
type sorterSink struct {
	sorter *extsort.Sorter
	edges  *extsort.Run // the sealed set
}

func (ss *sorterSink) writer(_, _ int) keyWriter { return ss.sorter.Writer() }

func (ss *sorterSink) seal(*pipeline.Run) (int, func(int64) (bool, error), error) {
	edges, err := ss.sorter.Consolidate()
	if err != nil {
		return 0, nil, err
	}
	ss.edges = edges
	return int(edges.Count()), edges.Contains, nil
}
