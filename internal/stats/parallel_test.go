package stats

import (
	"context"
	"errors"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// statGraph builds a moderately dense deterministic test graph with
// hubs, so triangle and wedge work is unevenly distributed across the
// vertex range (the case parallel sharding must get right).
func statGraph(n int, seed uint64) *graph.Graph {
	rng := randx.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		// Preferential-style wiring toward low ids.
		for t := 0; t < 6; t++ {
			v := rng.IntN(u + 1)
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestFeatureCountsWorkerInvariant(t *testing.T) {
	g := statGraph(2000, 3)
	base := must(FeaturesOfCtx(pipeline.New(nil, 1, nil), g))
	if base.Delta == 0 || base.H == 0 {
		t.Fatal("degenerate test graph")
	}
	for _, workers := range []int{2, 4, 8} {
		got := must(FeaturesOfCtx(pipeline.New(nil, workers, nil), g))
		if got != base {
			t.Fatalf("workers=%d: features %+v != %+v", workers, got, base)
		}
	}
	if must(FeaturesOfCtx(nil, g)) != base {
		t.Fatal("nil Run features differ from the 1-worker Run")
	}
}

func TestTrianglesPerNodeWorkerInvariant(t *testing.T) {
	g := statGraph(1200, 5)
	base := must(TrianglesPerNodeCtx(pipeline.New(nil, 1, nil), g))
	for _, workers := range []int{4, 8} {
		got := must(TrianglesPerNodeCtx(pipeline.New(nil, workers, nil), g))
		for v := range got {
			if got[v] != base[v] {
				t.Fatalf("workers=%d: node %d count %d != %d", workers, v, got[v], base[v])
			}
		}
	}
	// Cross-check: the per-node counts triple-count each triangle.
	var sum int64
	for _, c := range base {
		sum += c
	}
	if sum != 3*must(TrianglesCtx(nil, g)) {
		t.Fatalf("per-node sum %d != 3×%d", sum, must(TrianglesCtx(nil, g)))
	}
	// An empty graph has no shards, hence no per-worker arrays to merge.
	if got := must(TrianglesPerNodeCtx(pipeline.New(nil, 8, nil), graph.Empty(0))); len(got) != 0 {
		t.Fatalf("empty graph per-node counts = %v", got)
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

func TestTrianglesPerNodeCancelled(t *testing.T) {
	g := statGraph(1200, 5)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		run := pipeline.New(ctx, workers, nil)
		if _, err := TrianglesPerNodeCtx(run, g); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: TrianglesPerNodeCtx err = %v, want context.Canceled", workers, err)
		}
		if _, err := ClusteringByDegreeCtx(run, g); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ClusteringByDegreeCtx err = %v, want context.Canceled", workers, err)
		}
	}
	// An expired deadline stops the pass with its own error.
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	if _, err := LocalClusteringCtx(pipeline.New(ctx, 2, nil), g); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("LocalClusteringCtx err = %v, want context.DeadlineExceeded", err)
	}
}

func TestHopPlotWorkerInvariant(t *testing.T) {
	g := statGraph(600, 7)
	base := must(HopPlotCtx(pipeline.New(nil, 1, nil), g))
	if len(base) < 2 {
		t.Fatal("degenerate hop plot")
	}
	for _, workers := range []int{2, 4, 8} {
		got := must(HopPlotCtx(pipeline.New(nil, workers, nil), g))
		if len(got) != len(base) {
			t.Fatalf("workers=%d: hop plot length %d != %d", workers, len(got), len(base))
		}
		for h := range got {
			if got[h] != base[h] {
				t.Fatalf("workers=%d: hop %d count %d != %d", workers, h, got[h], base[h])
			}
		}
	}
}

func TestHopPlotWorkersEmptyGraph(t *testing.T) {
	if got := must(HopPlotCtx(pipeline.New(nil, 8, nil), graph.Empty(0))); len(got) != 0 {
		t.Fatalf("empty graph hop plot = %v", got)
	}
	got := must(HopPlotCtx(pipeline.New(nil, 8, nil), graph.Empty(4)))
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("isolated nodes hop plot = %v, want [4]", got)
	}
}
