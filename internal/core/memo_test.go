package core

import (
	"reflect"
	"sync"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// TestEstimateFactsMemoConcurrent: concurrent fits of one graph, which
// race to compute and memoise its triangle-release facts, release the
// same bits as serial fits of an identical graph; so do later fits,
// which read the memo.
func TestEstimateFactsMemoConcurrent(t *testing.T) {
	init := skg.Initiator{A: 0.99, B: 0.55, C: 0.35}
	seeds := []uint64{1, 2, 3, 4}
	estimate := func(g *graph.Graph, seed uint64) *Result {
		res, err := EstimateCtx(pipeline.New(nil, 1, nil), g, Options{Eps: 0.4, Delta: 0.01, Rng: randx.New(seed)})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	serial := map[uint64]*Result{}
	gs := sample(t, init, 10, 21)
	for _, s := range seeds {
		serial[s] = estimate(gs, s)
	}

	g := sample(t, init, 10, 21)
	for round := range 2 {
		got := make([]*Result, len(seeds))
		var wg sync.WaitGroup
		for i, s := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = estimate(g, s)
			}()
		}
		wg.Wait()
		for i, s := range seeds {
			if !reflect.DeepEqual(got[i], serial[s]) {
				t.Errorf("round %d seed %d: concurrent fit %+v, serial %+v", round, s, got[i], serial[s])
			}
		}
	}
}

// TestEstimateFactsMemoBitIdentical: the fit that computes a graph's
// triangle-release facts and a later fit that reads them from the memo
// release the same Result for the same seed.
func TestEstimateFactsMemoBitIdentical(t *testing.T) {
	g := sample(t, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 9, 17)
	var res [2]*Result
	for i := range res {
		res[i] = must(EstimateCtx(nil, g, Options{Eps: 0.3, Delta: 0.01, Rng: randx.New(5)}))
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("compute %+v, hit %+v", res[0], res[1])
	}
}
