package experiments

import (
	"testing"
	"time"

	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
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

// TestEpsilonSweepProgressRises runs the ε sweep of a k=6 graph (8 ε ×
// 8 trials on 4 workers) 40 times and checks each call's "sweep"
// events: between the stage's start and end the fractions rise, end at
// 1 and number at most ~100. The sink sleeps briefly, as one writing
// to a terminal does, so cells finishing together on different workers
// queue for it; they must not report their fractions out of order.
func TestEpsilonSweepProgressRises(t *testing.T) {
	m := must(skg.NewModel(skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, 6))
	g := must(m.SampleCtx(nil, randx.New(5)))
	epsilons := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4}
	for rep := 0; rep < 40; rep++ {
		var fracs []float64
		run := pipeline.New(nil, 4, func(e pipeline.Event) {
			if e.Stage == "sweep" {
				fracs = append(fracs, e.Frac)
				time.Sleep(20 * time.Microsecond)
			}
		})
		if _, err := EpsilonSweepCtx(run, g, 6, epsilons, 0.01, 8, uint64(rep)); err != nil {
			t.Fatal(err)
		}
		if len(fracs) < 3 || len(fracs) > 102 {
			t.Fatalf("sweep %d: %d events, want a few and at most 102", rep, len(fracs))
		}
		progress := fracs[1 : len(fracs)-1] // between the stage's start and end
		for i, f := range progress {
			if f <= 0 || i > 0 && f <= progress[i-1] {
				t.Fatalf("sweep %d: progress %v does not rise", rep, progress)
			}
		}
		if last := progress[len(progress)-1]; last != 1 {
			t.Fatalf("sweep %d: progress ends at %v, want 1", rep, last)
		}
	}
}
