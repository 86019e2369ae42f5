package skg

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"dpkron/internal/extsort"
	"dpkron/internal/faultfs"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// packedEdges collects a graph's edges as sorted packed keys, the
// stream currency.
func packedKeys(t *testing.T, es *EdgeStream) []int64 {
	t.Helper()
	it, err := es.Edges()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []int64
	for {
		k, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// TestStreamBallDropMatchesSample checks the core streaming contract:
// for a fixed seed the spilled edge set is bit-identical to the
// in-memory sampler's graph, across spill chunk sizes and worker
// counts.
func TestStreamBallDropMatchesSample(t *testing.T) {
	m, err := NewModel(Initiator{A: 0.9, B: 0.6, C: 0.3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	const target = 2000 // dense enough to force cross-shard collisions and a top-up
	want := must(m.SampleBallDropNCtx(pipeline.New(nil, 4, nil), randx.New(7), target))
	var wantKeys []int64
	want.ForEachEdge(func(u, v int) { wantKeys = append(wantKeys, int64(u)<<32|int64(v)) })
	if len(wantKeys) != target {
		t.Fatalf("reference sampled %d edges, want %d", len(wantKeys), target)
	}
	for _, chunk := range []int{64, 1 << 20} {
		for _, workers := range []int{1, 4} {
			sorter, err := extsort.New(faultfs.OS, t.TempDir(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			es, err := m.StreamBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(7), target, sorter)
			if err != nil {
				t.Fatal(err)
			}
			got := packedKeys(t, es)
			if es.NumEdges() != int64(len(got)) {
				t.Fatalf("NumEdges = %d but stream yielded %d keys", es.NumEdges(), len(got))
			}
			if !slices.Equal(got, wantKeys) {
				t.Fatalf("chunk %d, workers %d: streamed edge set diverges from in-memory sample (%d vs %d edges)",
					chunk, workers, len(got), len(wantKeys))
			}
			es.Close()
			sorter.RemoveAll()
		}
	}
}

// TestStreamExactMatchesSample does the same for the exact sampler.
func TestStreamExactMatchesSample(t *testing.T) {
	m, err := NewModel(Initiator{A: 0.99, B: 0.55, C: 0.35}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := must(m.SampleExactCtx(pipeline.New(nil, 4, nil), randx.New(42)))
	var wantKeys []int64
	want.ForEachEdge(func(u, v int) { wantKeys = append(wantKeys, int64(u)<<32|int64(v)) })
	for _, chunk := range []int{32, 1 << 20} {
		sorter, err := extsort.New(faultfs.OS, t.TempDir(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		es, err := m.StreamExactCtx(pipeline.New(nil, 3, nil), randx.New(42), sorter)
		if err != nil {
			t.Fatal(err)
		}
		if got := packedKeys(t, es); !slices.Equal(got, wantKeys) {
			t.Fatalf("chunk %d: streamed exact edge set diverges (%d vs %d edges)", chunk, len(got), len(wantKeys))
		}
		es.Close()
		sorter.RemoveAll()
	}
}

// TestStreamCtxDispatch checks the K threshold routing matches
// SampleCtx: small K streams the exact sampler, large K ball-drops.
func TestStreamCtxDispatch(t *testing.T) {
	for _, k := range []int{6, 14} {
		m, err := NewModel(Initiator{A: 0.8, B: 0.5, C: 0.3}, k)
		if err != nil {
			t.Fatal(err)
		}
		want := must(m.SampleCtx(pipeline.New(nil, 2, nil), randx.New(3)))
		var wantKeys []int64
		want.ForEachEdge(func(u, v int) { wantKeys = append(wantKeys, int64(u)<<32|int64(v)) })
		sorter, err := extsort.New(faultfs.OS, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		es, err := m.StreamCtx(pipeline.New(nil, 2, nil), randx.New(3), sorter)
		if err != nil {
			t.Fatal(err)
		}
		if es.NumNodes() != m.NumNodes() {
			t.Fatalf("K=%d: NumNodes = %d, want %d", k, es.NumNodes(), m.NumNodes())
		}
		if got := packedKeys(t, es); !slices.Equal(got, wantKeys) {
			t.Fatalf("K=%d: StreamCtx edge set diverges from SampleCtx (%d vs %d edges)", k, len(got), len(wantKeys))
		}
		es.Close()
		sorter.RemoveAll()
	}
}

// TestStreamFaults proves spill failures surface as errors, not as a
// truncated sample.
func TestStreamFaults(t *testing.T) {
	m, err := NewModel(Initiator{A: 0.9, B: 0.6, C: 0.3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.OS).Fail(faultfs.Fault{Op: faultfs.OpWrite, Path: ".run", Short: 4})
	sorter, err := extsort.New(inj, t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sorter.RemoveAll()
	if _, err := m.StreamBallDropNCtx(pipeline.New(nil, 2, nil), randx.New(7), 500, sorter); err == nil {
		t.Fatal("streaming sample with torn spill writes succeeded")
	}
}

// TestBallDropSinksAgreeOnEdgePaths runs the ball-drop protocol's edge
// paths through both sinks: an empty target, fewer edges than shards, a
// target above the pair count, and a zero-mass initiator must yield the
// same key set in memory and streamed, and a pre-cancelled run must
// fail both with context.Canceled.
func TestBallDropSinksAgreeOnEdgePaths(t *testing.T) {
	for _, tc := range []struct {
		name      string
		init      Initiator
		k, target int
		wantEdges int
	}{
		{"target 0", Initiator{A: 0.9, B: 0.6, C: 0.3}, 9, 0, 0},
		{"target below shard count", Initiator{A: 0.9, B: 0.6, C: 0.3}, 9, 3, 3},
		{"target above pair count", Initiator{A: 0.9, B: 0.6, C: 0.3}, 3, 40, 8 * 7 / 2},
		{"zero-mass initiator", Initiator{}, 5, 10, 0},
	} {
		m := mustModel(t, tc.init.A, tc.init.B, tc.init.C, tc.k)
		for _, workers := range []int{1, 4} {
			g := must(m.SampleBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(11), tc.target))
			var memKeys []int64
			g.ForEachEdge(func(u, v int) { memKeys = append(memKeys, int64(u)<<32|int64(v)) })
			if len(memKeys) != tc.wantEdges {
				t.Fatalf("%s, workers %d: in-memory sample has %d edges, want %d", tc.name, workers, len(memKeys), tc.wantEdges)
			}
			sorter, err := extsort.New(faultfs.OS, t.TempDir(), 64)
			if err != nil {
				t.Fatal(err)
			}
			es, err := m.StreamBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(11), tc.target, sorter)
			if err != nil {
				t.Fatal(err)
			}
			if got := packedKeys(t, es); !slices.Equal(got, memKeys) || es.NumEdges() != int64(len(memKeys)) {
				t.Fatalf("%s, workers %d: streamed %d keys (NumEdges %d), in-memory %d", tc.name, workers, len(got), es.NumEdges(), len(memKeys))
			}
			es.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.SampleBallDropNCtx(pipeline.New(ctx, workers, nil), randx.New(11), tc.target); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, workers %d: cancelled SampleBallDropNCtx returned %v", tc.name, workers, err)
			}
			if _, err := m.StreamBallDropNCtx(pipeline.New(ctx, workers, nil), randx.New(11), tc.target, sorter); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, workers %d: cancelled StreamBallDropNCtx returned %v", tc.name, workers, err)
			}
			sorter.RemoveAll()
		}
	}
}

// errAfter is a context whose Err turns to context.Canceled at call
// n+1 and stays so: a cancellation that lands at a chosen check.
type errAfter struct {
	context.Context
	n, calls atomic.Int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.n.Load() {
		return context.Canceled
	}
	return nil
}

// writerCount is a memSink that counts the shards that handed it keys.
type writerCount struct {
	*memSink
	writers atomic.Int64
}

func (w *writerCount) writer(s, hint int) keyWriter {
	w.writers.Add(1)
	return w.memSink.writer(s, hint)
}

// TestBallDropCancelledMidShard cancels a one-shard ball drop after the
// pool's check and before the shard's first drop round. The shard stops
// with context.Canceled, which the pool returns as the shard's error,
// and no partial keys reach the sink.
func TestBallDropCancelledMidShard(t *testing.T) {
	m := mustModel(t, 0.9, 0.6, 0.3, 9)
	ctx := &errAfter{Context: context.Background()}
	ctx.n.Store(1) // the pool's check before shard 0 passes
	sink := &writerCount{memSink: newMemSink()}
	if _, err := m.ballDrop(pipeline.New(ctx, 1, nil), randx.New(11), 1, sink); err != context.Canceled {
		t.Fatalf("ball drop cancelled mid-shard returned %v, want context.Canceled", err)
	}
	if n := sink.writers.Load(); n != 0 {
		t.Fatalf("%d cancelled shards handed keys to the sink", n)
	}
}
