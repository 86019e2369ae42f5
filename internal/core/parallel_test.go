package core

import (
	"testing"

	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// TestEstimateWorkerInvariant checks the whole-pipeline contract: with a
// fixed seed, Algorithm 1 releases the same private initiator, features
// and degree sequence for every Workers setting, because each parallel
// stage (sampling, feature counting, sensitivity scan, moment descent)
// is sharded deterministically.
func TestEstimateWorkerInvariant(t *testing.T) {
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := must(m.SampleExactCtx(nil, randx.New(1)))

	run := func(workers int) *Result {
		res, err := EstimateCtx(pipeline.New(nil, workers, nil), g, Options{Eps: 0.5, Delta: 0.01, Rng: randx.New(2)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.Init != base.Init {
			t.Errorf("workers=%d: initiator %v != %v", workers, got.Init, base.Init)
		}
		if got.Features != base.Features {
			t.Errorf("workers=%d: features %+v != %+v", workers, got.Features, base.Features)
		}
		if got.Triangles.Noisy != base.Triangles.Noisy {
			t.Errorf("workers=%d: noisy triangles %v != %v", workers, got.Triangles.Noisy, base.Triangles.Noisy)
		}
		for i := range base.DegreeSeq {
			if got.DegreeSeq[i] != base.DegreeSeq[i] {
				t.Fatalf("workers=%d: degree sequence differs at %d", workers, i)
			}
		}
	}
}
