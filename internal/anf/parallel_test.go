package anf

import (
	"testing"

	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
)

func TestHopPlotWorkerInvariant(t *testing.T) {
	g := randomGraph(300, 0.03, 11)
	base := must(HopPlotCtx(pipeline.New(nil, 1, nil), g, Options{Trials: 32, Rng: randx.New(9)}))
	if len(base) < 2 {
		t.Fatal("degenerate hop plot")
	}
	for _, workers := range []int{2, 4, 8} {
		got := must(HopPlotCtx(pipeline.New(nil, workers, nil), g, Options{Trials: 32, Rng: randx.New(9)}))
		if len(got) != len(base) {
			t.Fatalf("workers=%d: length %d != %d", workers, len(got), len(base))
		}
		for h := range got {
			if got[h] != base[h] {
				t.Fatalf("workers=%d: hop %d estimate %v != %v (must be bit-identical)",
					workers, h, got[h], base[h])
			}
		}
	}
}
