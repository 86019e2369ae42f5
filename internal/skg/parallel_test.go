package skg

import (
	"testing"

	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

// The parallel samplers must be deterministic in the seed and invariant
// in the worker count: the sharded design attaches random streams to
// fixed work units, so any number of goroutines reproduces the same
// graph. These tests are the module's contract for that property and
// are meant to run under -race.

func TestSampleExactWorkerInvariant(t *testing.T) {
	m := mustModel(t, 0.99, 0.45, 0.25, 10)
	base := must(m.SampleExactCtx(pipeline.New(nil, 1, nil), randx.New(42)))
	if base.NumEdges() == 0 {
		t.Fatal("degenerate sample")
	}
	for _, workers := range []int{2, 4, 8} {
		g := must(m.SampleExactCtx(pipeline.New(nil, workers, nil), randx.New(42)))
		if !g.Equal(base) {
			t.Fatalf("workers=%d: sampled edge set differs from workers=1", workers)
		}
	}
	// And a nil Run (all cores) agrees too.
	if !must(m.SampleExactCtx(nil, randx.New(42))).Equal(base) {
		t.Fatal("nil-Run SampleExactCtx differs from the 1-worker Run")
	}
}

func TestSampleExactWorkerInvariantTinyAndAsymmetric(t *testing.T) {
	// Edge cases: fewer rows than shards, and an asymmetric initiator.
	for _, k := range []int{1, 2, 3, 7} {
		m := mustModel(t, 0.9, 0.3, 0.6, k)
		base := must(m.SampleExactCtx(pipeline.New(nil, 1, nil), randx.New(9)))
		for _, workers := range []int{4, 8} {
			if !must(m.SampleExactCtx(pipeline.New(nil, workers, nil), randx.New(9))).Equal(base) {
				t.Fatalf("k=%d workers=%d: edge set differs", k, workers)
			}
		}
	}
}

func TestSampleBallDropWorkerInvariant(t *testing.T) {
	m := mustModel(t, 0.99, 0.55, 0.35, 11)
	base := must(m.SampleBallDropCtx(pipeline.New(nil, 1, nil), randx.New(7)))
	for _, workers := range []int{2, 4, 8} {
		g := must(m.SampleBallDropCtx(pipeline.New(nil, workers, nil), randx.New(7)))
		if !g.Equal(base) {
			t.Fatalf("workers=%d: ball-drop edge set differs from workers=1", workers)
		}
	}
	if !must(m.SampleBallDropCtx(nil, randx.New(7))).Equal(base) {
		t.Fatal("nil-Run SampleBallDropCtx differs from the 1-worker Run")
	}
}

func TestSampleBallDropNWorkersHitsTarget(t *testing.T) {
	m := mustModel(t, 0.99, 0.5, 0.2, 10)
	for _, target := range []int{1, 10, 500, 2000} {
		for _, workers := range []int{1, 4, 8} {
			g := must(m.SampleBallDropNCtx(pipeline.New(nil, workers, nil), randx.New(3), target))
			if g.NumEdges() != target {
				t.Fatalf("target=%d workers=%d: placed %d edges", target, workers, g.NumEdges())
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSampleWorkersDispatchInvariant(t *testing.T) {
	// Below and above the K=13 exact/ball-drop dispatch threshold.
	for _, k := range []int{12, 14} {
		m := mustModel(t, 0.99, 0.45, 0.25, k)
		base := must(m.SampleCtx(pipeline.New(nil, 1, nil), randx.New(5)))
		if !must(m.SampleCtx(pipeline.New(nil, 8, nil), randx.New(5))).Equal(base) {
			t.Fatalf("k=%d: SampleCtx not worker-invariant", k)
		}
	}
}
