package kronmom

import (
	"testing"

	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// TestMomentFitAllocations bounds what one fit allocates. The
// objective allocates nothing, and the fit's roughly 4,000 evaluations
// share per-descent buffers, so a fit stays under 200 allocations; one
// allocation per evaluation would put it near 7,000.
func TestMomentFitAllocations(t *testing.T) {
	obs := stats.Features{E: 28980, H: 240000, T: 3.2e6, Delta: 48000}
	obj := DefaultObjective()
	init := skg.Initiator{A: 0.99, B: 0.45, C: 0.25}
	if a := testing.AllocsPerRun(100, func() { obj.Eval(obs, 13, init) }); a != 0 {
		t.Errorf("Objective.Eval makes %v allocations, want 0", a)
	}
	seed := uint64(0)
	a := testing.AllocsPerRun(5, func() {
		seed++
		must(FitCtx(nil, obs, 13, Options{Rng: randx.New(seed)}))
	})
	if a >= 200 {
		t.Errorf("FitCtx makes %v allocations, want fewer than 200", a)
	}
	t.Logf("FitCtx: %v allocations", a)
}
