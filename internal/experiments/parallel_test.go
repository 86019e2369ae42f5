package experiments

import (
	"testing"

	"dpkron/internal/pipeline"
	"dpkron/internal/skg"
)

// smallRegistry is a scaled-down two-dataset registry so the concurrent
// table harness is exercised without the full k=13–14 generation cost.
func smallRegistry() []Dataset {
	return []Dataset{
		{
			Name:   "tiny-a",
			Source: skg.Initiator{A: 0.99, B: 0.45, C: 0.25},
			K:      8, Seed: 21, TrueInit: true,
		},
		{
			Name:   "tiny-b",
			Source: skg.Initiator{A: 0.95, B: 0.55, C: 0.2},
			K:      8, Seed: 22, TrueInit: true,
		},
	}
}

func TestRunTable1DatasetsWorkerInvariant(t *testing.T) {
	opts := Table1Options{KronFitIters: 3}
	base, err := RunTable1DatasetsCtx(pipeline.New(nil, 1, nil), smallRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || base[0].Dataset.Name != "tiny-a" {
		t.Fatalf("rows out of order: %+v", base)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunTable1DatasetsCtx(pipeline.New(nil, workers, nil), smallRegistry(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i].KronFit != base[i].KronFit ||
				got[i].KronMom != base[i].KronMom ||
				got[i].Private != base[i].Private {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, got[i], base[i])
			}
		}
	}
}

func TestEpsilonSweepWorkerInvariant(t *testing.T) {
	d := smallDataset()
	g := must(d.GenerateCtx(nil))
	base, err := EpsilonSweepCtx(pipeline.New(nil, 1, nil), g, d.K, []float64{0.1, 1}, 0.01, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EpsilonSweepCtx(pipeline.New(nil, 8, nil), g, d.K, []float64{0.1, 1}, 0.01, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], base[i])
		}
	}
}
